"""Tests of the benchmark's own measuring code.

    python3 -m pytest perfbench/test_counts.py

The counting test starts real child passes; for ``validate`` that is two
cold desk-grid runs (about a minute each on a 2-core Xeon).
"""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", ["validate", "multipoint", "trajectory"])
def test_two_counting_passes_give_identical_counts(workload):
    deadline = time.monotonic() + 600
    first = run.spawn(workload, 3, "count", deadline)
    second = run.spawn(workload, 3, "count", deadline)
    assert first["counts"] == second["counts"]
    assert first["counts"]["partitions.Partition.inits"] > 0
    assert first["failed"] == second["failed"] == 0


def test_self_time_excludes_child_spans():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.05)

    def outer():
        time.sleep(0.02)
        mod.inner()
        mod.inner()

    mod.outer = outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "inner")
    tracer.wrap(mod, "outer", "outer")
    tracer.enabled = True
    mod.outer()
    tracer.enabled = False
    mod.outer()  # not recorded
    s = tracer.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["outer"]["s"] == pytest.approx(s["outer"]["self_s"] + s["inner"]["s"])
    assert 0.02 <= s["outer"]["self_s"] < 0.05
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
