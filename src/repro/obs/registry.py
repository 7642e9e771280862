"""The metrics system: named counters, gauges and histograms.

Subsystems register instruments under a name plus optional labels
(``registry.counter("gateway_writes_committed")``,
``registry.histogram("gateway_request_latency", tenant="doctor")``); one
:meth:`MetricsRegistry.snapshot` then renders every instrument in a single
deterministic tree.  The instruments *are* the serving numbers: a
:class:`Histogram` holds its samples and computes their percentiles, a
:class:`Gauge` is moved with :meth:`Gauge.add` (keeping its high-water mark)
or reads a callback (e.g. ``lambda: queue_depth``), and the gateway's
``metrics()`` tree reads the same objects the snapshot renders.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Fixed log-scale histogram bucket upper bounds (simulated seconds):
#: 1 ms doubling up to ~37 h.  Fixed bounds keep distributions from
#: different runs (and different histograms in one registry) comparable.
HISTOGRAM_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    0.001 * (2 ** i) for i in range(28))


def percentile(samples: Sequence[float], q: float,
               default: Optional[float] = 0.0) -> Optional[float]:
    """The ``q``-th percentile of ``samples``, interpolating between ranks
    (the p95 of ``[1, 2, ..., 10]`` is 9.55, not a raw sample).

    With no samples, returns ``default`` (0.0 for report-friendly
    summaries).  A caller *deciding* on the value — admission control
    comparing it against a target — passes ``default=None``: an empty window
    is no evidence, and reading it as 0.0 latency would wave every write
    through exactly when nothing has been measured yet.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile q must be in [0, 100]")
    if not samples:
        return default
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (rank - lower)


def _median(samples: Sequence[float]) -> float:
    """The middle sample, or the mean of the two middle ones (as
    ``statistics.median``, without loading ``decimal`` and ``fractions``)."""
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def render_key(name: str, labels: LabelKey) -> str:
    """A stable, prometheus-style key: ``name{label="value",...}``."""
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge instead")
        self._value += amount
        return self._value

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value: set outright, moved by :meth:`add`, or read
    from a callback.  A set or moved gauge keeps its high-water mark,
    :attr:`peak` — for outstanding writes and commits in flight, the peak is
    what proves admission actually interleaved with commits.
    """

    __slots__ = ("_fn", "_value", "_peak")

    def __init__(self, fn: Optional[Callable[[], Any]] = None) -> None:
        self._fn = fn
        self._value: Any = 0
        self._peak: Any = 0

    def set(self, value: Any) -> None:
        if self._fn is not None:
            raise ValueError("cannot set a callback-backed gauge")
        self._value = value
        self._peak = max(self._peak, value)

    def add(self, delta: int = 1) -> int:
        """Move the value by ``delta`` (negative to lower it); returns it."""
        if self._fn is not None:
            raise ValueError("cannot move a callback-backed gauge")
        self._value += delta
        if self._value > self._peak:
            self._peak = self._value
        return self._value

    @property
    def value(self) -> Any:
        if self._fn is not None:
            return self._fn()
        return self._value

    @property
    def peak(self) -> Any:
        return self._peak


class Histogram:
    """A distribution of samples (latencies, in simulated seconds):
    :meth:`observe` is one list append, every statistic is computed on read."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        # ``statistics.fmean``'s arithmetic, bit for bit.
        samples = self.samples
        return math.fsum(samples) / len(samples) if samples else 0.0

    def percentile(self, q: float,
                   default: Optional[float] = 0.0) -> Optional[float]:
        """See :func:`percentile`."""
        return percentile(self.samples, q, default)

    def buckets(self) -> Dict[str, int]:
        """Sample counts per fixed log-scale bucket (upper-bound keyed).

        A sample lands in the first bucket whose bound is >= its value;
        samples beyond the last bound count under ``"+inf"``.  Empty buckets
        are omitted, so the dict stays small however wide the bounds range.
        """
        counts: Dict[str, int] = {}
        for value in self.samples:
            index = bisect.bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)
            key = (repr(HISTOGRAM_BUCKET_BOUNDS[index])
                   if index < len(HISTOGRAM_BUCKET_BOUNDS) else "+inf")
            counts[key] = counts.get(key, 0) + 1
        return {key: counts[key] for key in sorted(counts, key=float)}

    def summary(self) -> Dict[str, float]:
        samples = self.samples
        return {
            "count": float(len(samples)),
            "mean": self.mean,
            "median": _median(samples) if samples else 0.0,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": max(samples) if samples else 0.0,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {"summary": self.summary(), "buckets": self.buckets()}


class MetricsRegistry:
    """Get-or-create instruments keyed by ``(name, labels)``.

    Re-registering the same name+labels returns the existing instrument;
    asking for the same key as a different kind raises ``ValueError`` so two
    subsystems cannot silently shadow each other.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Tuple[str, Any]] = {}

    @staticmethod
    def _label_key(labels: Mapping[str, Any]) -> LabelKey:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def _get_or_create(self, kind: str, name: str, labels: Mapping[str, Any],
                       factory: Callable[[], Any]) -> Any:
        key = (name, self._label_key(labels))
        existing = self._instruments.get(key)
        if existing is not None:
            existing_kind, instrument = existing
            if existing_kind != kind:
                raise ValueError(
                    f"{render_key(*key)} already registered as "
                    f"{existing_kind}, not {kind}")
            return instrument
        instrument = factory()
        self._instruments[key] = (kind, instrument)
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None,
              **labels: Any) -> Gauge:
        return self._get_or_create("gauge", name, labels, lambda: Gauge(fn))

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get_or_create("histogram", name, labels, Histogram)

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> set:
        """The distinct instrument names registered so far."""
        return {name for name, _labels in self._instruments}

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every instrument's current value, deterministically ordered."""
        items = sorted(self._instruments.items())
        snapshot: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        for (name, labels), (kind, instrument) in items:
            key = render_key(name, labels)
            if kind == "counter":
                snapshot["counters"][key] = instrument.value
            elif kind == "gauge":
                snapshot["gauges"][key] = instrument.value
            else:
                snapshot["histograms"][key] = instrument.to_dict()
        return snapshot
