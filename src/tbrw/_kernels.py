"""Hot simulation kernels.

Two loops carry the runtime: the walk's per-step loop (attach leaves, jump
to a uniform neighbor), under every experiment but the grand coupling, and
the grand coupling's swarm step (split the ball at U, attach the new
vertices, move every ball).  Each has two backends with bit-identical
output:

* ``c``: ``tbrw_simulate`` and ``tbrw_grand`` in ``_kernel.c``, built on
  first import by the system ``gcc`` with ``-O2 -shared -fPIC`` into
  ``__pycache__/_kernel.<key>.so`` beside this file, where the key hashes
  the source and the flags.  Later imports only load the cached library
  with ctypes; forked pool workers inherit it.
* ``python``: ``_simulate_python`` and ``_grand_python`` below, the same
  loops run step by step.  They are the references the C loops are tested
  against, and the fallback when gcc is not on PATH, the build fails or the
  cache cannot be written; ``FALLBACK_REASON`` then says which.

``BACKEND`` names the backend that ``simulate_loop`` and ``grand_loop``
run.  Neither backend consumes randomness of its own: leaf counts, jump
uniforms and the grand coupling's uniform stream are precomputed arrays,
which is what makes the two interchangeable and every run replayable.
"""

import bisect
import ctypes
import hashlib
import operator
import os
import shutil

import numpy as np


def _simulate_python(parent, depth, birth, first_child, next_sibling,
                     last_child, n_children, n_nodes, pos, xi, jump_u,
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


def _grand_python(parent, depth, birth, first_child, next_sibling, last_child,
                  n_children, n_nodes, pos, horizon, stream, uniforms,
                  label_start, label_lo, label_hi, ball_steps):
    """Drive the grand swarm for ``horizon`` steps on the uniforms of
    ``stream``, mutating the arena and filling the output arrays.

    The arena holds the ``n_nodes`` initial vertices, each labeled [0, 1],
    and has room for the at most n new vertices of each step n.  After step
    n the balls are the n + 1 gaps between the sorted cuts {0, U_1..U_n, 1}.
    Step n takes the next uniform U, redrawn while it is 0 or an earlier
    cut, into ``uniforms[n - 1]``; attaches to every vertex holding a ball
    from the one U splits on, in node order, one vertex labeled with those
    balls' parts of [U, 1]; splits that ball at U; then, taking the next
    n + 1 uniforms in ball order, moves every ball to a uniformly chosen
    neighbor (parent first, then children in creation order) whose label
    holds the ball.  Node w's label is the parts ``label_lo/hi[label_start[w]
    : label_start[w + 1]]``; step n's ball nodes are ``ball_steps[n(n + 1)/2
    :][:n + 1]``.  Returns the final node count, -1 when a ball has no
    eligible neighbor, or -3 when the stream runs out.
    """
    children = []
    for v in range(n_nodes):
        kids, c = [], int(first_child[v])
        for _ in range(n_children[v]):
            kids.append(c)
            c = int(next_sibling[c])
        children.append(kids)
    par = parent[:n_nodes].tolist()
    dep = depth[:n_nodes].tolist()
    born = birth[:n_nodes].tolist()
    label = [((0.0, 1.0),)] * n_nodes
    cuts = [0.0, 1.0]
    ball_node = [int(pos)]
    steps = list(ball_node)
    drawn = []
    s = 0

    for n in range(1, horizon + 1):
        while True:
            if s >= len(stream):
                return -3
            u = float(stream[s])
            s += 1
            k = bisect.bisect(cuts, u) - 1  # the ball that U splits
            if cuts[k] != u:  # else 0 or a duplicate
                break
        drawn.append(u)

        # the labels of the balls from k on meet [U, 1]; the others lie below U
        parts_at = {}
        for i in range(k, len(ball_node)):
            lo = u if i == k else cuts[i]
            parts_at.setdefault(ball_node[i], []).append((lo, cuts[i + 1]))
        for v in sorted(parts_at):
            node = len(par)
            par.append(v)
            dep.append(dep[v] + 1)
            born.append(n)
            children.append([])
            children[v].append(node)
            label.append(tuple(parts_at[v]))

        cuts.insert(k + 1, u)
        ball_node.insert(k + 1, ball_node[k])

        if s + len(ball_node) > len(stream):
            return -3
        jumps = stream[s:s + len(ball_node)].tolist()
        s += len(ball_node)
        for i, v in enumerate(ball_node):
            lo, hi = cuts[i], cuts[i + 1]
            nbrs = children[v] if par[v] < 0 else [par[v], *children[v]]
            eligible = [w for w in nbrs
                        if any(a <= lo and hi <= b for a, b in label[w])]
            if not eligible:
                return -1
            ball_node[i] = eligible[min(int(jumps[i] * len(eligible)),
                                        len(eligible) - 1)]
        steps.extend(ball_node)

    free = len(par)
    parent[:free], depth[:free], birth[:free] = par, dep, born
    n_children[:free] = [len(kids) for kids in children]
    first_child[:free] = [kids[0] if kids else -1 for kids in children]
    last_child[:free] = [kids[-1] if kids else -1 for kids in children]
    next_sibling[n_nodes:free] = -1
    for kids in children:
        next_sibling[kids[:-1]] = kids[1:]
    label_start[:free + 1] = np.cumsum([0] + [len(parts) for parts in label])
    parts = [ab for parts in label for ab in parts]
    label_lo[:len(parts)] = [a for a, _ in parts]
    label_hi[:len(parts)] = [b for _, b in parts]
    uniforms[:] = drawn
    ball_steps[:] = steps
    return free


_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _build(gcc: str, lib_path: str) -> None:
    """Compile ``_SOURCE`` to ``lib_path``; raises ``OSError`` on failure.

    Each build writes its own temporary file and renames it into place, so
    concurrent builds are safe.
    """
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(lib_path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(lib_path))
    os.close(fd)
    try:
        try:
            proc = subprocess.run([gcc, *_CFLAGS, "-o", tmp, _SOURCE],
                                  capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise OSError(str(exc)) from None
        if proc.returncode != 0:
            raise OSError(f"gcc exited with {proc.returncode}: "
                          + " ".join(proc.stderr.split())[:400])
        os.replace(tmp, lib_path)  # readers see no file or a whole one
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_c():
    """Return ``((tbrw_simulate, tbrw_grand), None)``, or ``(None, why there
    are none)``."""
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "gcc not found on PATH"
    try:
        with open(_SOURCE, "rb") as fh:
            key = hashlib.sha256(fh.read() + " ".join(_CFLAGS).encode())
        lib_path = os.path.join(os.path.dirname(_SOURCE), "__pycache__",
                                f"_kernel.{key.hexdigest()[:16]}.so")
        if not os.path.exists(lib_path):
            _build(gcc, lib_path)
        lib = ctypes.CDLL(lib_path)
        simulate, grand = lib.tbrw_simulate, lib.tbrw_grand
    except (OSError, AttributeError) as exc:
        return None, f"C kernel build failed: {exc}"
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    simulate.argtypes = [ptr] * 7 + [i64] * 3 + [ptr] * 5
    grand.argtypes = [ptr] * 7 + [i64] * 3 + [ptr, i64] + [ptr] * 5
    simulate.restype = grand.restype = i64
    return (simulate, grand), None


_c_lib, FALLBACK_REASON = _load_c()
_c_simulate, _c_grand = _c_lib or (None, None)

_INT64, _FLOAT64, _BOOL = (np.dtype(np.int64), np.dtype(np.float64),
                           np.dtype(np.bool_))
_NODE_ARRAYS = ("parent", "depth", "birth", "first_child", "next_sibling",
                "last_child", "n_children")


def _address(name, a, dtype, length=None, writable=True,
             min_length=0) -> int:
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and (a.flags.writeable or not writable)):
        raise ValueError(f"{name}: need a {'writable ' if writable else ''}"
                         f"C-contiguous 1-d {dtype} array")
    if length is not None and len(a) != length:
        raise ValueError(f"{name}: length {len(a)}, need {length}")
    if len(a) < min_length:
        raise ValueError(f"{name}: length {len(a)}, need at least {min_length}")
    return a.ctypes.data


def _simulate_c(parent, depth, birth, first_child, next_sibling, last_child,
                n_children, n_nodes, pos, xi, jump_u,
                positions, depths, leaf_flags):
    """``_simulate_python`` in C, after checking every input the C code trusts.

    Raises ``ValueError`` before the call when an array has the wrong dtype,
    shape, layout or length, when ``pos`` is not one of the ``n_nodes``
    existing nodes, or when a leaf count is negative or a jump uniform lies
    outside [0, 1).  The C loop checks each link it follows, and a link to
    no existing node (an arena ``engine`` did not build) raises too.
    """
    nodes = (parent, depth, birth, first_child, next_sibling, last_child,
             n_children)
    node_ptrs = [_address(name, a, _INT64)
                 for name, a in zip(_NODE_ARRAYS, nodes)]
    xi_ptr = _address("xi", xi, _INT64, writable=False)
    steps = len(xi)
    u_ptr = _address("jump_u", jump_u, _FLOAT64, steps, writable=False)
    traj_ptrs = [_address("positions", positions, _INT64, steps),
                 _address("depths", depths, _INT64, steps),
                 _address("leaf_flags", leaf_flags, _BOOL, steps)]
    if steps < 1:
        raise ValueError("xi: need at least one entry")
    n_nodes, pos = operator.index(n_nodes), operator.index(pos)
    if not 0 <= pos < n_nodes:
        raise ValueError(f"pos {pos} is not one of the {n_nodes} nodes")
    capacity = min(len(a) for a in nodes)
    # with each count at most the capacity, the int64 sum of arrays that fit
    # in memory cannot wrap
    if xi.min() < 0 or xi.max() > capacity \
            or n_nodes + int(xi.sum()) > capacity:
        raise ValueError(f"xi: need counts >= 0 that fit {capacity} node "
                         f"slots after the {n_nodes} existing nodes")
    if not (jump_u.min() >= 0.0 and jump_u.max() < 1.0):  # NaN fails too
        raise ValueError("jump_u: every value must lie in [0, 1)")
    final = _c_simulate(*node_ptrs, n_nodes, pos, steps - 1, xi_ptr, u_ptr,
                        *traj_ptrs)
    if final == -2:
        raise ValueError("arena: a link names a node that does not exist")
    return final


def _grand_c(parent, depth, birth, first_child, next_sibling, last_child,
             n_children, n_nodes, pos, horizon, stream, uniforms,
             label_start, label_lo, label_hi, ball_steps):
    """``_grand_python`` in C, after checking every input the C code trusts.

    Raises ``ValueError`` before the call when an array has the wrong dtype,
    shape or layout; when the node arrays, ``label_lo`` or ``label_hi`` have
    fewer than n_nodes + horizon (horizon + 1)/2 slots (the most vertices and
    label parts a run can make), or ``label_start`` fewer than that plus one;
    when ``uniforms`` does not have ``horizon`` entries or ``ball_steps``
    (horizon + 1)(horizon + 2)/2; when ``pos`` is not one of the ``n_nodes``
    existing nodes; or when a stream value lies outside [0, 1).  As in
    ``_simulate_c``, a link to no existing node raises too.
    """
    n_nodes, pos, horizon = map(operator.index, (n_nodes, pos, horizon))
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is negative")
    if not 0 <= pos < n_nodes:
        raise ValueError(f"pos {pos} is not one of the {n_nodes} nodes")
    slots = n_nodes + horizon * (horizon + 1) // 2
    node_ptrs = [_address(name, a, _INT64, min_length=slots)
                 for name, a in zip(_NODE_ARRAYS, (
                     parent, depth, birth, first_child, next_sibling,
                     last_child, n_children))]
    stream_ptr = _address("stream", stream, _FLOAT64, writable=False)
    out_ptrs = [
        _address("uniforms", uniforms, _FLOAT64, horizon),
        _address("label_start", label_start, _INT64, min_length=slots + 1),
        _address("label_lo", label_lo, _FLOAT64, min_length=slots),
        _address("label_hi", label_hi, _FLOAT64, min_length=slots),
        _address("ball_steps", ball_steps, _INT64,
                 (horizon + 1) * (horizon + 2) // 2)]
    if len(stream) and not (stream.min() >= 0.0 and stream.max() < 1.0):
        raise ValueError("stream: every value must lie in [0, 1)")
    final = _c_grand(*node_ptrs, n_nodes, pos, horizon, stream_ptr,
                     len(stream), *out_ptrs)
    if final == -2:
        raise ValueError("arena: a link names a node that does not exist")
    if final == -4:
        raise MemoryError("grand kernel: no memory for the swarm")
    return final


BACKEND = "c" if _c_lib is not None else "python"
simulate_loop = _simulate_c if _c_lib is not None else _simulate_python
grand_loop = _grand_c if _c_lib is not None else _grand_python


def available_backends(kernel: str = "simulate") -> dict:
    """Map backend name -> the ``simulate`` or ``grand`` loop, for
    benchmarks and equivalence tests."""
    backends = {"python": {"simulate": _simulate_python,
                           "grand": _grand_python}}
    if _c_lib is not None:
        backends["c"] = {"simulate": _simulate_c, "grand": _grand_c}
    return {name: loops[kernel] for name, loops in backends.items()}
