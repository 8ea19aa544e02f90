"""``SlidingWindow`` keeps its samples as rows in unboxed columns.

It must answer exactly what the deque of sample objects it replaced
answered — throughput, error rate, latency percentiles, length — over
any sequence of records and queries, out-of-order timestamps and a
reassigned ``window_s`` included, while holding no Python object per
sample.
"""

import sys
import tracemalloc
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.metrics import SlidingWindow
from repro.stats import nearest_rank


class ReferenceWindow:
    """The window as a deque of ``(at, latency, ok)`` samples."""

    def __init__(self, window_s):
        self.window_s, self.samples = window_s, deque()

    def record(self, now, latency_s, ok=True):
        self.samples.append((now, latency_s, ok))
        self._evict(now)

    def _evict(self, now):
        while self.samples and self.samples[0][0] < now - self.window_s:
            self.samples.popleft()

    def throughput(self, now):
        self._evict(now)
        if not self.samples:
            return 0.0
        return len(self.samples) / min(self.window_s, max(now - self.samples[0][0], 1e-9))

    def error_rate(self, now):
        self._evict(now)
        if not self.samples:
            return 0.0
        return sum(1 for sample in self.samples if not sample[2]) / len(self.samples)

    def latency_percentile(self, now, pct):
        self._evict(now)
        return nearest_rank(sorted(sample[1] for sample in self.samples), pct)

    def __len__(self):
        return len(self.samples)


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.floats(-3.0, 4.0),  # a step back is an out-of-order sample
            st.floats(0.0, 2.0),
            st.booleans(),
        ),
        st.tuples(st.sampled_from(["throughput", "error_rate", "len"]), st.floats(-1.0, 6.0)),
        st.tuples(st.just("latency"), st.floats(-1.0, 6.0), st.sampled_from([1, 50, 95, 99, 100])),
        st.tuples(st.just("resize"), st.floats(0.5, 8.0)),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 8.0), steps)
def test_answers_equal_the_deque_of_samples(window_s, script):
    window, reference = SlidingWindow(window_s), ReferenceWindow(window_s)
    # Compact after every few evictions, so short scripts reach it too.
    window.COMPACT_AFTER = 2
    now = 0.0
    for step in script:
        kind = step[0]
        if kind == "record":
            now += step[1]
            window.record(now, step[2], step[3])
            reference.record(now, step[2], step[3])
        elif kind == "resize":
            window.window_s = reference.window_s = step[1]
        elif kind == "len":
            assert len(window) == len(reference)
        elif kind == "latency":
            at = now + step[1]
            assert window.latency_percentile(at, step[2]) == reference.latency_percentile(
                at, step[2]
            )
        else:
            at = now + step[1]
            assert getattr(window, kind)(at) == getattr(reference, kind)(at)
        assert len(window) == len(reference)


def test_a_sample_exactly_at_the_cutoff_is_kept():
    window = SlidingWindow(10.0)
    window.record(0.0, 0.5, ok=False)
    window.record(5.0, 0.25)
    assert window.error_rate(10.0) == 0.5
    assert window.throughput(10.0) == 2 / 10.0
    assert len(window) == 2
    assert window.error_rate(10.5) == 0.0
    assert len(window) == 1


def test_window_s_can_be_reassigned():
    window = SlidingWindow(30.0)
    for second in range(20):
        window.record(float(second), 0.1)
    window.window_s = 0.5
    assert window.throughput(19.25) == 1 / 0.25
    assert len(window) == 1


def test_a_sample_costs_less_than_one_float_object():
    """Rows live in ``array`` columns: 17 bytes of payload per sample,
    below even one boxed float — a sample object would cost several."""
    rows = 50_000
    window = SlidingWindow(1e9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(rows):
            window.record(float(index), 0.001 * (index % 7), ok=index % 11 != 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(window) == rows
    assert held / rows < sys.getsizeof(0.0)
