"""In-memory spans around the public functions of silt's layers.

A span records a name, a start, an end, the index of the span that caused it
and an optional dict of counts.  Spans are appended in call order, so a
parent's index is always smaller than its children's.  The wrappers are
installed from the benchmark's own files by rebinding names in the loaded
``silt`` modules; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span, -1 for a root
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; nothing is written until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx)


def layer_of(name: str) -> str:
    """Span names are '<layer>.<function>'; the layer is the silt module."""
    return name.split(".", 1)[0]


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def roots(spans: List[Span]) -> List[int]:
    """Index of the root span above each span."""
    out: List[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


# ---------------------------------------------------------------------------
# probes: which silt functions get a span, and what each span counts


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``module`` plus a dotted ``attr`` path.

    ``record(args, kwargs, result)`` returns counts stored on the span.
    ``returns`` names the span put around the callable that a factory
    returns (the batched integrands are closures built per call).
    """

    span: str
    module: str
    attr: str
    record: Optional[Callable] = None
    returns: Optional[str] = None
    returns_record: Optional[Callable] = None


@dataclass
class Installation:
    patches: List[Tuple[object, str, object]]
    missing: List[str]

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()


def _traced(tracer: Tracer, name: str, fn: Callable, record: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            if record is not None:
                tracer.spans[idx].data.update(record(args, kwargs, result))
            return result
        finally:
            tracer.end(idx)

    return wrapper


def _make_wrapper(tracer: Tracer, probe: Probe, original: Callable) -> Callable:
    wrapped = _traced(tracer, probe.span, original, probe.record)
    if probe.returns is None:
        return wrapped

    @functools.wraps(original)
    def factory(*args, **kwargs):
        return _traced(tracer, probe.returns, wrapped(*args, **kwargs), probe.returns_record)

    return factory


def _resolve(probe: Probe):
    """(owner, name, value) of the probed attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = inspect.getattr_static(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


def install(tracer: Tracer, probes: List[Probe], package: str) -> Installation:
    """Wrap every probe that still exists; list the others as missing.

    A module-level function is rebound in every loaded module of ``package``
    that holds it (``from .gram import decompose`` copies the reference), so
    calls between layers pass through the wrapper too.  A method is rebound
    on its class.
    """
    inst = Installation([], [])
    modules = [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == package or key.startswith(package + "."))
    ]
    for probe in probes:
        found = _resolve(probe)
        if found is None:
            inst.missing.append(f"{probe.module}.{probe.attr}")
            continue
        owner, name, original = found
        wrapper = _make_wrapper(tracer, probe, original)
        if inspect.isclass(owner):
            inst.patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    inst.patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return inst
