"""In-memory span recorder and the wrapping of dnagolay functions.

A span is (name, parent, start, end). Spans nest through a stack, so a
span's parent is whichever span was open when it started. The codec is
single-threaded, so the children of one span never overlap and a span's
self time is its duration minus the sum of its children's durations.

Library functions are traced by replacing every module-level binding of
the function object inside the ``dnagolay`` package with a wrapper, and
restoring the originals afterwards. A function that a later version of
the codec no longer defines is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "dnagolay"
MODULES = ("ternary", "transcode", "codebook", "chunks", "mldecode", "analysis")


class Tracer:
    """Spans kept in flat arrays; nothing is written until :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def top_level_seconds(self, since: int) -> float:
        """Summed duration of the root spans opened at index ``since`` or later."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(since, len(self.start))
            if self.parent[i] == -1
        )

    def aggregate(
        self, since: int = 0, within: str | None = None
    ) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, total seconds, self seconds) over spans
        opened at index ``since`` or later and, if ``within`` is given,
        only those inside a span of that name."""
        if since >= len(self.start):
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[since:] - since
        dur = np.frombuffer(self.end)[since:] - np.frombuffer(self.start)[since:]
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        if within is not None:
            keep = self._inside(ids, parent, self._name_ids.get(within, -1))
            ids, dur, self_time = ids[keep], dur[keep], self_time[keep]
        width = len(self.names)
        counts = np.bincount(ids, minlength=width)
        totals = np.bincount(ids, weights=dur, minlength=width)
        selfs = np.bincount(ids, weights=self_time, minlength=width)
        return {
            name: (int(counts[k]), float(totals[k]), float(selfs[k]))
            for k, name in enumerate(self.names)
            if counts[k]
        }

    @staticmethod
    def _inside(ids, parent, target: int) -> np.ndarray:
        """Which spans have an ancestor with name id ``target``; walks up
        one level per step for all spans at once."""
        inside = np.zeros(len(ids), dtype=bool)
        ancestor = parent.copy()
        live = ancestor >= 0
        while live.any():
            up = ancestor[live]
            inside[live] |= ids[up] == target
            ancestor[live] = parent[up]
            live = ancestor >= 0
        return inside

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def resolve(targets: list[str]):
    """Split ``module.function`` names into found functions and absent names."""
    found, absent = {}, []
    for target in targets:
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        fn = getattr(module, attr, None)
        if callable(fn):
            found[target] = fn
        else:
            absent.append(target)
    return found, absent


@contextmanager
def installed(tracer: Tracer, functions: dict):
    """Wrap every binding of each function in the package's modules.

    A span is named after the module that defines the function, so calls
    through ``chunks.trits_to_dna`` and ``transcode.trits_to_dna`` both
    count as ``transcode.trits_to_dna``.
    """
    modules = [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]
    # ``functions`` holds every function, so no other object can share its id
    names = {id(fn): name for name, fn in functions.items()}
    saved = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = names.get(id(value))
                if name is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, tracer.wrap(name, value))
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
