"""Timing wrappers for altrace's public module attributes.

The wrappers replace attributes such as ``trace.t_new_squarefree`` on the
module object.  Calls between modules go through those attributes
(``murmur`` -> ``trace.*`` -> ``classnum.hurwitz12_ext``), so the wrappers
see them.  ``arith`` functions are imported by name into the other modules,
so calls to them are invisible here; arith is measured only through the
sieve build and its cache size.

Counters and a self-time stack are kept per thread (the cancellation scan
runs on a thread pool) and merged at the end.  Spans are kept only at the
workload -> segment -> entry-call level.
"""
from __future__ import annotations

import contextlib
import functools
import threading
import time

# module name -> the attributes that get a wrapper
WRAPPED = {
    "classnum": ("hurwitz12_ext", "ht12", "hurwitz12_oracle"),
    "trace": ("t_new", "t_new_level", "t_new_squarefree", "t_full_fricke"),
    "signs": ("delta", "equidistribution_predicate", "dim_new"),
    "twist": ("quadtwist_characters",),
    "murmur": ("scan_WQ", "scan_eigenspace", "cancellation_diag"),
}
DISTINCT = ("trace.t_new_squarefree", "signs.dim_new")
# kernel calls made directly by a murmur scan each evaluate one level
LEVEL_KERNELS = ("trace.t_new_squarefree", "trace.t_new", "trace.t_new_level", "signs.dim_new")
ENTRY_SPANS_PER_SEGMENT = 1000


class Tracer:
    """Per-function calls, inclusive and self seconds, plus spans.

    table_bound is the |disc| bound of the class-number table the benchmark
    installed (0 for none): a hurwitz12_ext call on a class-number-bearing
    discriminant beyond it is a fallback to the per-discriminant path.
    """

    def __init__(self, table_bound: int = 0):
        self.table_bound = table_bound
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads: list[dict] = []
        self._main = threading.main_thread().ident
        self._installed: list[tuple[object, str, object]] = []
        self._entry = None  # name of the open top-level call on the main thread
        self.spans: list[dict] = []
        self._segment: int | None = None
        self._segment_entries = 0
        self.dropped_spans = 0
        self.spans.append({"name": "workload", "parent": None, "start": time.perf_counter(), "end": None})

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, attrs in WRAPPED.items():
            module = modules.get(mod_name)
            if module is None:
                continue
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                setattr(module, attr, self._wrap("%s.%s" % (mod_name, attr), fn))
                self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def segment(self, name: str):
        self.spans.append({"name": name, "parent": 0, "start": time.perf_counter(), "end": None})
        self._segment = len(self.spans) - 1
        self._segment_entries = 0
        try:
            yield
        finally:
            self.spans[self._segment]["end"] = time.perf_counter()
            self._segment = None

    def close(self) -> None:
        self.spans[0]["end"] = time.perf_counter()
        self.uninstall()

    # -- the wrapper --------------------------------------------------------

    def _state(self) -> dict:
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"stack": [], "fn": {}, "args": {}, "need_h": 0, "fallback_calls": 0, "fallback_s": 0.0, "level_evals": 0}
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        tracer = self
        keep_args = name in DISTINCT
        is_ext = name == "classnum.hurwitz12_ext"
        is_kernel = name in LEVEL_KERNELS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st["stack"]
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            on_main = threading.get_ident() == tracer._main
            if parent is None and on_main:
                tracer._entry = name
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stack.pop()
                rec = st["fn"].get(name)
                if rec is None:
                    rec = st["fn"][name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    caller = parent[0]
                elif on_main:
                    caller = None
                    tracer._entry = None
                    tracer._entry_span(name, t0, t1)
                else:  # top of a pool thread: the main thread's open call made it
                    caller = tracer._entry
                if is_kernel and caller is not None and caller.startswith("murmur."):
                    st["level_evals"] += 1
                if keep_args:
                    st["args"].setdefault(name, set()).add((args, tuple(sorted(kwargs.items()))))
                if is_ext and args:
                    disc = args[0]
                    if disc < 0 and disc % 4 in (0, 1):
                        st["need_h"] += 1
                        if -disc > tracer.table_bound:
                            st["fallback_calls"] += 1
                            st["fallback_s"] += elapsed

        return wrapper

    def _entry_span(self, name: str, t0: float, t1: float) -> None:
        if self._segment is None:
            return
        if self._segment_entries >= ENTRY_SPANS_PER_SEGMENT:
            self.dropped_spans += 1
            return
        self._segment_entries += 1
        self.spans.append({"name": name, "parent": self._segment, "start": t0, "end": t1})

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Merged per-function [calls, inclusive s, self s], distinct-argument
        counts and the hurwitz12_ext path counters."""
        fns: dict[str, list] = {}
        distinct: dict[str, set] = {}
        out = {"need_h": 0, "fallback_calls": 0, "fallback_s": 0.0, "level_evals": 0}
        for st in self._threads:
            for name, (calls, incl, self_s) in st["fn"].items():
                rec = fns.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
            for name, seen in st["args"].items():
                distinct.setdefault(name, set()).update(seen)
            for key in out:
                out[key] += st[key]
        out["fn"] = fns
        out["distinct"] = {name: len(seen) for name, seen in distinct.items()}
        return out

    def span_dump(self) -> list[dict]:
        base = self.spans[0]["start"]
        return [
            {
                "name": s["name"],
                "parent": s["parent"],
                "start_s": s["start"] - base,
                "end_s": (s["end"] if s["end"] is not None else s["start"]) - base,
            }
            for s in self.spans
        ]
