"""Hot simulation kernels.

The per-step loop (attach leaves, jump to a uniform neighbor) dominates the
runtime of every experiment, so it is compiled with numba when available.
A fallback that runs the same loop step by step in Python, with
bit-identical output, is selected by setting the environment variable
``TBRW_NUMBA=0`` (or when numba is not importable).
Both paths consume no randomness of their own: leaf counts and jump uniforms
are precomputed arrays, which is what makes the two backends interchangeable
and every run replayable.
"""

import os


def _simulate_loop(parent, depth, birth, first_child, next_sibling, last_child,
                   n_children, n_nodes, pos, xi, jump_u,
                   positions, depths, leaf_flags):
    """Advance the walk for ``len(xi) - 1`` steps, mutating the arena in place.

    Node arrays must be pre-sized to ``n_nodes + xi.sum()``; trajectory arrays
    to ``len(xi)``.  ``jump_u[n]`` is mapped to a neighbor index by
    ``int(u * degree)`` with neighbors ordered parent-first, then children in
    creation order.  Returns the final node count.
    """
    horizon = xi.shape[0] - 1
    positions[0] = pos
    depths[0] = depth[pos]
    leaf_flags[0] = (n_children[pos] + (1 if parent[pos] >= 0 else 0)) == 1
    free = n_nodes
    for n in range(1, horizon + 1):
        for _ in range(xi[n]):
            node = free
            free += 1
            parent[node] = pos
            depth[node] = depth[pos] + 1
            birth[node] = n
            if first_child[pos] < 0:
                first_child[pos] = node
            else:
                next_sibling[last_child[pos]] = node
            last_child[pos] = node
            n_children[pos] += 1
        has_parent = 1 if parent[pos] >= 0 else 0
        deg = n_children[pos] + has_parent
        if deg == 0:
            # isolated walker: no legal move; signal to the caller
            return -1
        r = int(jump_u[n] * deg)
        if r >= deg:  # guards u rounding up at the boundary
            r = deg - 1
        if has_parent == 1 and r == 0:
            pos = parent[pos]
        else:
            child = first_child[pos]
            for _ in range(r - has_parent):
                child = next_sibling[child]
            pos = child
        positions[n] = pos
        depths[n] = depth[pos]
        leaf_flags[n] = (n_children[pos] + (1 if parent[pos] >= 0 else 0)) == 1
    return free


def _env_wants_numba() -> bool:
    flag = os.environ.get("TBRW_NUMBA", "").strip().lower()
    return flag not in ("0", "false", "off", "no")


_simulate_numpy = _simulate_loop

if _env_wants_numba():
    try:
        from numba import njit

        _simulate_numba = njit(cache=True, nogil=True)(_simulate_loop)
        BACKEND = "numba"
    except ImportError:  # pragma: no cover - exercised only without numba
        _simulate_numba = None
        BACKEND = "numpy"
else:
    _simulate_numba = None
    BACKEND = "numpy"

simulate_loop = _simulate_numba if _simulate_numba is not None else _simulate_numpy


def available_backends() -> dict:
    """Map backend name -> callable, for benchmarks and equivalence tests."""
    backends = {"numpy": _simulate_numpy}
    if _simulate_numba is not None:
        backends["numba"] = _simulate_numba
    return backends
