"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (dict trees, exhaustive recursion,
Fraction arithmetic) and shares no code with the package internals.
"""

from fractions import Fraction

import numpy as np


def enumerate_depth_distribution(parents, walker, xi_seq):
    """Exact law of the walker's depth after len(xi_seq) steps, by exhaustive
    enumeration of every uniform jump outcome.  Returns {depth: Fraction}."""
    children = {i: [] for i in range(len(parents))}
    parent = {}
    depth = {}
    root = None
    for i, p in enumerate(parents):
        if p is None or p < 0:
            root = i
            parent[i] = None
        else:
            parent[i] = p
            children[p].append(i)
    order = [root]
    depth[root] = 0
    while order:
        v = order.pop()
        for c in children[v]:
            depth[c] = depth[v] + 1
            order.append(c)

    out = {}

    def recurse(children, parent, depth, pos, step, prob, next_id):
        if step == len(xi_seq):
            out[depth[pos]] = out.get(depth[pos], Fraction(0)) + prob
            return
        k = xi_seq[step]
        children = {v: list(c) for v, c in children.items()}
        parent = dict(parent)
        depth = dict(depth)
        for _ in range(k):
            node = next_id
            next_id += 1
            children[node] = []
            parent[node] = pos
            depth[node] = depth[pos] + 1
            children[pos].append(node)
        neighbors = ([parent[pos]] if parent[pos] is not None else []) \
            + children[pos]
        share = prob / len(neighbors)
        for nb in neighbors:
            recurse(children, parent, depth, nb, step + 1, share, next_id)

    recurse(children, parent, depth, walker, 0, Fraction(1), len(parents))
    assert sum(out.values()) == 1
    return out


def reference_walk(parents, walker, xi, jump_u):
    """The walk stepped on a dict tree with the draws given: at step n attach
    ``xi[n]`` leaves to the walker, then jump to neighbor
    ``int(jump_u[n] * degree)`` (clamped) of the list parent first, then
    children in creation order.  Returns ``(positions, depths, parent)``,
    ``parent`` mapping every node of the final tree to its parent (-1 for
    the root); raises ValueError when the walker has no neighbor."""
    parent = {i: -1 if p is None else p for i, p in enumerate(parents)}
    children = {i: [] for i in parent}
    for i in sorted(parent):
        if parent[i] >= 0:
            children[parent[i]].append(i)

    def depth(v):
        return 0 if parent[v] < 0 else 1 + depth(parent[v])

    pos = walker
    positions, depths = [pos], [depth(pos)]
    for n in range(1, len(xi)):
        for _ in range(xi[n]):
            node = len(parent)
            parent[node] = pos
            children[node] = []
            children[pos].append(node)
        nbrs = ([parent[pos]] if parent[pos] >= 0 else []) + children[pos]
        if not nbrs:
            raise ValueError("walker is isolated and cannot jump")
        pos = nbrs[min(int(jump_u[n] * len(nbrs)), len(nbrs) - 1)]
        positions.append(pos)
        depths.append(depth(pos))
    return positions, depths, parent


def brute_force_renewals(depths, leaf_flags):
    """All steps satisfying the three regeneration clauses, by direct loops."""
    n = len(depths) - 1
    found = []
    for t in range(1, n + 1):
        if not leaf_flags[t]:
            continue
        if any(depths[s] >= depths[t] for s in range(t)):
            continue
        if any(depths[u] < depths[t] for u in range(t + 1, n + 1)):
            continue
        found.append(t)
    return found


def brute_force_ladder(depths, leaf_flags):
    """Chained first-arrival times per the iterated definition."""
    n = len(depths) - 1
    times = []
    level = depths[0]
    t = 0
    while True:
        nxt = None
        for s in range(t + 1, n + 1):
            if leaf_flags[s] and depths[s] > level:
                nxt = s
                break
        if nxt is None:
            return times
        times.append(nxt)
        level = depths[nxt]
        t = nxt


def decaying_expected_count(gamma, horizon):
    """Partial sum of step probabilities n**-gamma (mean of added leaves)."""
    return float(np.sum(np.arange(1, horizon + 1, dtype=np.float64) ** -gamma))


def decaying_count_sd(gamma, horizon):
    p = np.arange(1, horizon + 1, dtype=np.float64) ** -gamma
    return float(np.sqrt(np.sum(p * (1 - p))))
