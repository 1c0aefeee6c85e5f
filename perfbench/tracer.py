"""Span tracer and operation counters for the benchmark's child process.

Spans are recorded from outside the program: ``Tracer.wrap`` replaces a
function at the module attribute where its caller looks it up (a name
imported with ``from x import f`` is a separate lookup site and must be
wrapped too).  Each span keeps its name, start, end, parent span and an
optional note; self time is derived at the end as the span's duration minus
the time covered by its direct children.

``Counter`` is the separate counting hook: it wraps ``fractions.Fraction``
arithmetic and ``Partition.__init__``.  It is installed only in the
counting child, so its overhead never reaches span self times.

``SpeedProbe`` samples how fast the interpreter runs while the untraced
passes run, so that their times can also be given in units of a fixed
reference loop.
"""

from __future__ import annotations

import fractions
import functools
import signal
import statistics
import time

FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__rpow__", "__abs__",
)


REFERENCE_ITERATIONS = 40_000
# The loop's time on a 2-core Xeon in a quiet phase: run.py reports set-up
# in seconds at this loop time.
NOMINAL_REFERENCE_S = 0.0025


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the interpreter's speed while the timed passes run.

    On a shared virtual machine the host slows this process by up to 1.8x
    in phases that last from seconds to minutes, longer than a run, so the
    per-operation time over several passes still varies between runs by that
    much.
    Every ``period`` seconds a timer signal runs the reference loop twice
    and keeps the faster time; ``measure`` then states a segment's time
    in units of the loop times sampled during it, in which such phases
    largely cancel.  The probe's own time is taken out of every segment.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.samples = []  # (start, end, reference loop seconds)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        ref = min(reference_loop(), reference_loop())
        self.samples.append((start, time.perf_counter(), ref))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def measure(self, begin: float, end: float) -> tuple[float, float]:
        """(seconds, reference loops) from ``begin`` to ``end``, without
        the samples taken in between.  A segment too short to hold a
        sample uses the one nearest its start."""
        inside = [smp for smp in self.samples if begin <= smp[0] < end]
        seconds = end - begin - sum(e - s for s, e, _ in inside)
        refs = [r for _, _, r in inside] or [
            min(self.samples, key=lambda smp: abs(smp[0] - begin))[2]]
        return seconds, seconds / statistics.mean(refs)


class Tracer:
    """In-memory span recorder; ``enabled`` switches recording on and off
    without unwrapping (checks and the warm pass run with it off)."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start_ns, end_ns, parent_index, note]
        self._stack = []

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` with a span-recording wrapper.
        ``note(args)`` may return a value stored with the span."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    note(args) if note else None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        setattr(module, attr, traced)

    def summary(self) -> dict:
        """name -> {"calls", "s", "self_s", "notes"}, plus per-note self
        time under "self_s_by_note"."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, note) in enumerate(self.spans):
            agg = out.setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": [], "self_s_by_note": {}}
            )
            dur = (end - start) / 1e9
            own = dur - child_ns[i] / 1e9
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += own
            if note is not None:
                agg["notes"].append(note)
                by = agg["self_s_by_note"]
                by[note] = by.get(note, 0.0) + own
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, parent, name, start_ns,
        end_ns, note."""
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\tnote\n")
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{'' if note is None else note}\n")


class Counter:
    """Counts Fraction arithmetic and Partition constructions while
    ``enabled``; installed by patching the classes in place."""

    def __init__(self):
        self.enabled = False
        self.counts = {"fraction_ops": 0, "partition_inits": 0}

    def install(self, partition_cls) -> None:
        for op in FRACTION_OPS:
            self._count_method(fractions.Fraction, op, "fraction_ops")
        self._count_method(partition_cls, "__init__", "partition_inits")

    def _count_method(self, cls, attr: str, key: str) -> None:
        fn = getattr(cls, attr)
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        setattr(cls, attr, counted)
