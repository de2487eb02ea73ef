"""Outside-in tracer: wraps the program's public functions by name.

Each target is `(module, qualname, span)`: the attribute `qualname` of
`module` is replaced, for as long as the tracer is installed, by a wrapper
that records a span.  Wrap a function in the namespace its caller looks it
up in (`maddpp.cli.read_records`, not `maddpp.io.read_records`).  A target
that does not exist is listed in `absent` and skipped, so a refactor that
removes a name does not break the run.

Spans are kept in memory as `[name, parent, request, start_ns, end_ns,
madd_error, work]` lists; `summarize` turns them into per-name totals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

NAME, PARENT, REQUEST, START, END, ERROR, WORK = range(7)


def _is_madd_error(exc: BaseException) -> bool:
    return any(cls.__name__ == "MaddError" for cls in type(exc).__mro__)


class Tracer:
    def __init__(self, targets, work=None):
        """`work` maps a span name to `f(args, kwargs) -> int`, the units of
        work a call does (rows, records x lambdas); stored on the span."""
        self.targets = list(targets)
        self.work = dict(work or {})
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.request = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        self.absent = []
        for module_name, qualname, span in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span))
            else:
                wrapped = self._wrap(raw, span)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            setattr(*self._undo.pop())

    def _wrap(self, fn, name: str):
        spans, stack, work = self.spans, self._stack, self.work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.request,
                    time.perf_counter_ns(), 0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                if work is not None:
                    try:
                        span[WORK] = work(args, kwargs)
                    except (TypeError, AttributeError, IndexError):
                        pass
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = _is_madd_error(exc)
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()

        return traced

    def records(self) -> list[dict]:
        """The spans as dicts, for writing out at the end of a run."""
        keys = ("name", "parent", "request", "start_ns", "end_ns", "madd_error", "work")
        return [dict(zip(keys, s)) for s in self.spans]


def summarize(spans) -> dict:
    """Per span name: calls, total and self seconds, MaddErrors, work units.

    Self time is a span's duration minus that of its direct children; the
    program is single-threaded, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        row = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "errors": 0, "work": 0})
        row["calls"] += 1
        row["s"] += dur / 1e9
        row["self_s"] += (dur - child_ns[i]) / 1e9
        row["errors"] += int(span[ERROR])
        row["work"] += span[WORK] or 0
    return out
