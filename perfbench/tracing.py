"""In-memory call spans for the benchmark's traced run.

A ``Tracer`` replaces chosen functions with wrappers that record one span
per call: the layer name, start and end (``perf_counter`` seconds), the
enclosing span and the operation (utterance or batch) the call served, plus
an optional per-call work count such as frames encoded. The wrappers are
installed by ``Tracer.patched`` and removed when it exits, so the
benchmark's untraced run executes the package's own functions.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``owner.attr`` is replaced for the traced run.

    ``count(args, kwargs)`` gives the span's work count; ``op(args, kwargs)``
    names the operation this and later spans belong to (``finetune`` builds
    its batches internally, so a training batch is known only from the
    ``forward_train`` call that receives it).
    """

    owner: object
    attr: str
    name: str
    count: Optional[Callable] = None
    op: Optional[Callable] = None


class Tracer:
    """Spans in parallel arrays, one entry per call, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.ops: list[str] = []
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack: list[int] = []
        self._current_op = -1

    def __len__(self) -> int:
        return len(self.start)

    def set_op(self, label: str) -> None:
        """Attribute the following spans to operation ``label``."""
        self.ops.append(label)
        self._current_op = len(self.ops) - 1

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int, count: float) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.op_id.append(self._current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.count.append(count)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        name_id = self._intern(target.name)
        count_of, op_of = target.count, target.op
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            if op_of is not None:
                self.set_op(op_of(args, kwargs))
            idx = open_(name_id, count_of(args, kwargs) if count_of is not None else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def patched(self, targets: list[Target]):
        """Install a wrapper for every target; restore the originals on exit.

        A wrapper set on an instance whose own ``__dict__`` lacked the
        attribute (a method of its class) is deleted again, so the instance
        falls back to its class attribute.
        """
        saved = []
        try:
            for t in targets:
                own = vars(t.owner)
                entry = (t, t.attr in own, own.get(t.attr))
                setattr(t.owner, t.attr, self.wrap(t, getattr(t.owner, t.attr)))
                saved.append(entry)
            yield self
        finally:
            for t, had_own, original in reversed(saved):
                if had_own:
                    setattr(t.owner, t.attr, original)
                else:
                    delattr(t.owner, t.attr)

    # -- analysis --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name and operation tables, as ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), ops=np.array(self.ops),
                            **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans nest (the traced program is single-threaded), so direct children
    of one span never overlap and their durations add up.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered
