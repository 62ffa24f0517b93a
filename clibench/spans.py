"""Span recording around the layers of a tbrw CLI process.

``install(tracer)`` replaces the module-level functions and class methods
that the experiment runners call with wrappers that record one span per
call: ``[span_id, parent_id, name, start, end, pid, counts]``.  Times are
``time.monotonic()`` readings, which share one clock across processes, so
spans from forked pool workers line up with those of the main process.

Each process buffers its spans and appends them to ``spans-<pid>.jsonl``
whenever its outermost open span closes.  A forked worker inherits the
parent's open spans as its ancestors, so a replica task's parent is the
replica map that forked the worker.

Nothing here changes what the program computes: every wrapper calls the
original with the same arguments and returns its result untouched.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import pickle
import time


class Tracer:
    def __init__(self, directory: str):
        self.directory = directory
        self.stack: list = []
        self.buffer: list = []
        self.pid = os.getpid()
        self.base_depth = 0
        self.serial = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the parent flushes its own buffer; spans open at the fork stay
        # open in the parent and become this process's ancestors
        self.pid = os.getpid()
        self.buffer = []
        self.base_depth = len(self.stack)
        self.serial = 0

    def open(self) -> tuple:
        self.serial += 1
        span_id = f"{self.pid}.{self.serial}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent

    def close(self, span_id, parent, name, start, end, counts) -> None:
        self.stack.pop()
        self.buffer.append([span_id, parent, name, start, end, self.pid, counts])
        if len(self.stack) <= self.base_depth:
            self.flush()

    def flush(self) -> None:
        if not self.buffer:
            return
        path = os.path.join(self.directory, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for record in self.buffer:
                fh.write(json.dumps(record) + "\n")
        self.buffer = []

    def wrap(self, fn, name: str, count=None):
        """``count(args, result)`` returns a dict of counts for the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self.open()
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span_id, parent, name, start, time.monotonic(),
                           {"raised": 1})
                raise
            end = time.monotonic()
            counts = count(args, result) if count is not None else {}
            self.close(span_id, parent, name, start, end, counts)
            return result

        return traced


class _WriteSpan:
    """A file opened for writing; one ``io.write`` span from open to close."""

    def __init__(self, tracer: Tracer, fh, path):
        self._tracer = tracer
        self._fh = fh
        self._path = path
        self._ids = tracer.open()
        self._start = time.monotonic()

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self):
        if self._fh.closed:
            return
        self._fh.close()
        end = time.monotonic()
        size = os.path.getsize(self._path)
        self._tracer.close(*self._ids, "io.write", self._start, end,
                           {"bytes": size})


def _traced_open(tracer: Tracer):
    def traced_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if not any(m in mode for m in "wax+") or not isinstance(file, str):
            return fh
        return _WriteSpan(tracer, fh, file)

    return traced_open


def _patch(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, count)))
    else:
        setattr(owner, attr, tracer.wrap(raw, name, count))


def _map_counts(args, result):
    # what the pool pickles per task is the (ok, payload) pair
    return {"tasks": len(args[1]),
            "workers": int(args[2]),
            "result_bytes": sum(len(pickle.dumps((True, r), pickle.HIGHEST_PROTOCOL))
                                for r in result)}


def install(tracer: Tracer, cli) -> None:
    """Wrap the layer entry points of an imported ``tbrw.cli``."""
    from tbrw import (_kernels, config, couplings, engine, estimators,
                      experiments, schedules, stopping)

    _patch(tracer, cli, "parse_config", "config.parse")
    _patch(tracer, cli, "run_experiment", "experiments.run")
    _patch(tracer, experiments, "_map_replicas", "experiments.map",
           _map_counts)
    _patch(tracer, experiments, "_safe_call", "experiments.task")
    for cls in schedules.LeafSchedule.__subclasses__():
        if "sample_array" in vars(cls):
            _patch(tracer, cls, "sample_array", "schedules.sample",
                   lambda a, r: {"draws": int(a[1])})
    _patch(tracer, engine, "run", "engine.run")
    _patch(tracer, engine, "_state_to_arrays", "engine.arena")
    _patch(tracer, _kernels, "simulate_loop", "kernels.loop",
           lambda a, r: {"steps": len(a[9]) - 1})
    _patch(tracer, engine.RootedTree, "from_arrays", "engine.tree",
           lambda a, r: {"nodes": r.node_count})
    _patch(tracer, engine, "trajectory_to_csv", "engine.csv",
           lambda a, r: {"bytes": os.path.getsize(str(a[1]))})
    _patch(tracer, stopping, "detect_renewals", "stopping.detect",
           lambda a, r: {"candidates": len(r.taus)})
    _patch(tracer, stopping, "renewal_blocks", "stopping.blocks")
    for attr, fn in list(vars(estimators).items()):
        if (callable(fn) and getattr(fn, "__module__", None) == estimators.__name__
                and not attr.startswith("_") and not attr.endswith("_to_csv")
                and not isinstance(fn, type)):
            _patch(tracer, estimators, attr, f"estimators.{attr}")
    _patch(tracer, couplings, "grand_run", "couplings.grand",
           lambda a, r: {"nodes": r.n_nodes,
                         "ball_moves": sum(len(ev["ball_moves"]) for ev in r.events)})
    _patch(tracer, couplings, "check_grand_invariants", "couplings.check")
    for attr in ("vertex_count", "instances_agree_through", "extract_instance"):
        _patch(tracer, couplings, attr, "couplings.query")
    # the modules that write artifacts resolve ``open`` in their own globals
    # first, so a module-level ``open`` times every file they write
    for module in (config, couplings, engine, estimators, experiments, stopping):
        module.open = _traced_open(tracer)
