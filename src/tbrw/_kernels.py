"""Hot simulation kernels.

The per-step loop (attach leaves, jump to a uniform neighbor) dominates the
runtime of every experiment.  It has two backends with bit-identical output:

* ``c``: ``_kernel.c``, built on first import by the system ``gcc`` with
  ``-O2 -shared -fPIC`` into ``__pycache__/_kernel.<key>.so`` beside this
  file, where the key hashes the source and the flags.  Later imports only
  load the cached library with ctypes; forked pool workers inherit it.
* ``python``: ``_simulate_python`` below, the same loop run step by step.  It
  is the reference the C loop is tested against, and the fallback when gcc
  is not on PATH, the build fails or the cache cannot be written;
  ``FALLBACK_REASON`` then says which.

``BACKEND`` names the backend ``simulate_loop`` runs.  Neither consumes
randomness of its own: leaf counts and jump uniforms are precomputed arrays,
which is what makes the two interchangeable and every run replayable.
"""

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
    """Return ``(tbrw_simulate, None)``, or ``(None, why there is none)``."""
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
        fn = ctypes.CDLL(lib_path).tbrw_simulate
    except OSError as exc:
        return None, f"C kernel build failed: {exc}"
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [ptr] * 7 + [i64] * 3 + [ptr] * 5
    fn.restype = i64
    return fn, None


_c_simulate, FALLBACK_REASON = _load_c()

_INT64, _FLOAT64, _BOOL = (np.dtype(np.int64), np.dtype(np.float64),
                           np.dtype(np.bool_))
_NODE_ARRAYS = ("parent", "depth", "birth", "first_child", "next_sibling",
                "last_child", "n_children")


def _address(name, a, dtype, length=None, writable=True) -> int:
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and (a.flags.writeable or not writable)):
        raise ValueError(f"{name}: need a {'writable ' if writable else ''}"
                         f"C-contiguous 1-d {dtype} array")
    if length is not None and len(a) != length:
        raise ValueError(f"{name}: length {len(a)}, need {length}")
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


BACKEND = "c" if _c_simulate is not None else "python"
simulate_loop = _simulate_c if _c_simulate is not None else _simulate_python


def available_backends() -> dict:
    """Map backend name -> callable, for benchmarks and equivalence tests."""
    backends = {"python": _simulate_python}
    if _c_simulate is not None:
        backends["c"] = _simulate_c
    return backends
