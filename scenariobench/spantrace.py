"""Outside-in span tracer for the scenario benchmark.

The tracer wraps named functions of the ``repro`` package from the outside:
no program code is edited.  Each wrapped call becomes a span with a wall
time, and the tracer keeps, per span name, the number of calls, the total
time, the self time (total minus the time of wrapped calls made inside it)
and every duration, plus the parent -> child edges between span names.

Rules that keep the numbers honest:

* A call to a span that is already open on the stack (recursion, or a
  subclass method calling the traced base method) passes through, so its
  time is never counted twice.
* Wrappers pass through in any process other than the one that installed
  the tracer.  Forked pool workers inherit the patched functions; their
  work therefore shows as the parent's wait inside the span that blocked
  on the pool.
* ``uninstall`` puts every original function object back.

The tracer is meant for one single-threaded caller; it takes no locks.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: Parent name of spans opened while no other traced span is open.
ROOT = "<root>"


@dataclass(frozen=True)
class Target:
    """One function to trace.

    ``qualname`` is either a module-level function name or
    ``Class.method``.  A module-level function is replaced in every loaded
    module of the same package that bound it by name (``from x import f``),
    a method on the class that defines it.  ``key``, if given, maps the
    call's arguments to a hashable value; the tracer counts the distinct
    values it sees (see :attr:`SpanStats.distinct`).
    """

    span: str
    module: str
    qualname: str
    key: Optional[Callable[..., Hashable]] = None


@dataclass
class SpanStats:
    """Accumulated figures of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)
    #: ``perf_counter`` reading when the last call of this span returned.
    last_end: Optional[float] = None
    keys: set = field(default_factory=set)

    @property
    def distinct(self) -> int:
        return len(self.keys)

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q`` quantile of the call durations (0 if none)."""
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        rank = max(math.ceil(q * len(ordered)), 1)
        return ordered[rank - 1]


class Tracer:
    """Patches the targets on :meth:`install` and restores them on :meth:`uninstall`."""

    def __init__(
        self,
        targets: Sequence[Target],
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        names = [target.span for target in targets]
        if len(set(names)) != len(names):
            raise ValueError("span names must be unique")
        self.targets = tuple(targets)
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {name: SpanStats() for name in names}
        #: ``(parent span, child span) -> [calls, total_s]``.
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        self._stack: List[List] = []
        self._open: set = set()
        self._patches: List[Tuple[object, str, object]] = []
        self._pid: Optional[int] = None

    # ------------------------------------------------------------ patching
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._pid = os.getpid()
        try:
            for target in self.targets:
                self._patch(target)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.uninstall()

    def _patch(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = module
            for part in owner_name.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            owners = [owner]
        else:
            original = getattr(module, attr)
            package = target.module.split(".")[0]
            owners = [
                loaded
                for name, loaded in list(sys.modules.items())
                if (name == package or name.startswith(package + "."))
                and getattr(loaded, attr, None) is original
            ]
        if not inspect.isfunction(original):
            raise TypeError(f"{target.module}.{target.qualname} is not a plain function")
        wrapper = self._wrap(target, original)
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        span = target.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if span in tracer._open or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            return tracer._call(span, target.key, original, args, kwargs)

        return wrapper

    # ------------------------------------------------------------- spans
    def _call(self, span, key, original, args, kwargs):
        frame = [span, 0.0]
        self._stack.append(frame)
        self._open.add(span)
        started = self.clock()
        try:
            return original(*args, **kwargs)
        finally:
            ended = self.clock()
            elapsed = ended - started
            self._stack.pop()
            self._open.discard(span)
            stats = self.stats[span]
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - frame[1]
            stats.durations.append(elapsed)
            stats.last_end = ended
            if self._stack:
                parent = self._stack[-1]
                parent[1] += elapsed
                edge = self.edges.setdefault((parent[0], span), [0, 0.0])
            else:
                edge = self.edges.setdefault((ROOT, span), [0, 0.0])
            edge[0] += 1
            edge[1] += elapsed
            if key is not None:
                stats.keys.add(key(*args, **kwargs))

    def top_level_s(self) -> float:
        """Summed time of spans opened while no other span was open."""
        return sum(total for (parent, _), (_, total) in self.edges.items() if parent == ROOT)

    def tree(self) -> List[dict]:
        """The parent -> child edges as JSON-ready records."""
        return [
            {"parent": parent, "child": child, "calls": int(calls), "total_s": float(total)}
            for (parent, child), (calls, total) in sorted(self.edges.items())
        ]
