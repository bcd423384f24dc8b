"""Spans and counting wrappers for the benchmark's traced run.

Spans are recorded by the benchmark around each call it makes into a
layer of spheretrs; operator and preconditioner applications are charged
to the innermost open span as a count plus seconds, not as spans of their
own.  The wrappers delegate every computation, so a traced solve performs
exactly the arithmetic of an untraced one.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

from spheretrs import Preconditioner, SymOp


@dataclass
class Span:
    layer: str
    name: str
    start: float = 0.0
    end: float = 0.0
    counts: Counter = field(default_factory=Counter)
    seconds: Counter = field(default_factory=Counter)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, layer: str, name: str):
        s = Span(layer, name)
        self._open.append(s)
        s.start = perf_counter()
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()
            self.spans.append(s)

    def charge(self, kind: str, seconds: float) -> None:
        """Attribute one application of ``kind`` to the innermost open span."""
        s = self._open[-1]
        s.counts[kind] += 1
        s.seconds[kind] += seconds


def span(tracer: Optional[Tracer], layer: str, name: str):
    """A span when tracing, otherwise a no-op context."""
    return tracer.span(layer, name) if tracer is not None else nullcontext()


class CountingOp(SymOp):
    """Counts applications of ``inner``; with a tracer, also times them.

    ``to_dense`` is delegated, because the base class would spend n
    applications on it.
    """

    def __init__(self, inner: SymOp, tracer: Optional[Tracer] = None):
        super().__init__(inner.dim)
        self.inner = inner
        self.tracer = tracer
        self.matvecs = 0

    def _matvec(self, v):
        self.matvecs += 1
        if self.tracer is None:
            return self.inner.apply(v)
        t0 = perf_counter()
        out = self.inner.apply(v)
        self.tracer.charge("matvec", perf_counter() - t0)
        return out

    def to_dense(self):
        return self.inner.to_dense()


class CountingPrecond(Preconditioner):
    """Times the shifted solves of a seed preconditioner; delegates the rest."""

    def __init__(self, inner: Preconditioner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.lambda_min_m = inner.lambda_min_m

    def apply(self, v):
        return self.inner.apply(v)

    def solve(self, shift, v):
        t0 = perf_counter()
        out = self.inner.solve(shift, v)
        self.tracer.charge("psolve", perf_counter() - t0)
        return out
