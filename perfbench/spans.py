"""In-memory span recorder for the traced benchmark run.

A span is one call across a public boundary of pqlab: its name, start and
end (``perf_counter_ns``), the span that was open when it began, and the
pass it belongs to.  Spans are opened by wrappers around callables, either
methods of objects the benchmark built itself or module attributes rebound
for the traced run only, so nothing inside the package changes.  They are
kept in flat arrays and written out once, when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded and nest, so the self times of a pass and of every
span inside it add up to the pass's duration exactly.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised: dict[str, int] = {}
        self.kept: dict[str, list] = {}
        self.current_pass = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.raised[name] = 0
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, keep=None):
        """``fn`` recorded as a span named ``name``.

        ``keep(result)`` runs after the span closes; what it returns is
        appended to ``self.kept[name]``.
        """
        nid = self._nid(name)
        kept = self.kept.setdefault(name, []) if keep is not None else None
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                close(i)
                self.raised[name] += 1
                raise
            close(i)
            if kept is not None:
                kept.append(keep(out))
            return out

        return traced

    def instrument(self, obj, prefix: str, methods, keep=None) -> None:
        """Shadow ``obj``'s methods with traced ones on the instance itself.

        Instance attributes win over class attributes, so calls the object
        makes on ``self`` are recorded too.
        """
        keep = keep or {}
        for m in methods:
            setattr(obj, m, self.wrap(f"{prefix}.{m}", getattr(obj, m), keep.get(m)))

    def replace(self, module, attr: str, value) -> None:
        """Rebind ``module.attr`` to ``value`` until ``restore``."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def patch(self, module, attr: str, name: str, keep=None) -> None:
        """Rebind ``module.attr`` to a traced wrapper until ``restore``."""
        self.replace(module, attr, self.wrap(name, getattr(module, attr), keep))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def table(self) -> "SpanTable":
        return SpanTable(self.names, self.name, self.start, self.end, self.parent)

    def write(self, path) -> None:
        np.savez(
            path, names=np.array(self.names), name=np.asarray(self.name), start_ns=np.asarray(self.start),
            end_ns=np.asarray(self.end), parent=np.asarray(self.parent), pass_id=np.asarray(self.pass_id),
        )


class SpanTable:
    """Column view of recorded spans with the aggregations the metrics use.

    Names are matched by prefix, so ``"dk."`` selects every dk method.
    """

    def __init__(self, names, name, start, end, parent):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.dur = (np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)) / 1e9
        covered = np.zeros(len(self.dur))
        child = self.parent >= 0
        np.add.at(covered, self.parent[child], self.dur[child])
        self.self_time = self.dur - covered
        self.parent_name = np.where(child, self.name[np.maximum(self.parent, 0)], -1)
        n = len(self.names)
        self._calls = np.bincount(self.name, minlength=n)
        self._self = np.bincount(self.name, weights=self.self_time, minlength=n)
        self._incl = np.bincount(self.name, weights=self.dur, minlength=n)

    def _ids(self, prefix: str) -> list[int]:
        return [i for i, s in enumerate(self.names) if s == prefix or s.startswith(prefix) and prefix.endswith(".")]

    def calls(self, prefix: str) -> int:
        return int(sum(self._calls[i] for i in self._ids(prefix)))

    def self_s(self, prefix: str) -> float:
        return float(sum(self._self[i] for i in self._ids(prefix)))

    def incl_s(self, prefix: str) -> float:
        return float(sum(self._incl[i] for i in self._ids(prefix)))

    def top_incl_s(self, prefix: str) -> float:
        """Time inside spans matching ``prefix`` not nested in another such span."""
        ids = self._ids(prefix)
        top = np.isin(self.name, ids) & ~np.isin(self.parent_name, ids)
        return float(self.dur[top].sum())

    def under(self, prefix: str, parent_prefix: str) -> int:
        """Spans matching ``prefix`` whose direct parent matches ``parent_prefix``."""
        mask = np.isin(self.name, self._ids(prefix)) & np.isin(self.parent_name, self._ids(parent_prefix))
        return int(np.count_nonzero(mask))

    def quantile_us(self, name: str, q: float) -> float:
        d = self.dur[np.isin(self.name, self._ids(name))]
        return float(np.quantile(d, q) * 1e6) if len(d) else 0.0
