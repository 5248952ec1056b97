"""Tests of the benchmark's own harness: tail selection, span folding,
open-loop due-time accounting, and agreement with BENCHMARK.json.

Run:  PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from spans import Tracer, child_time, fold  # noqa: E402
from stats import (DueClock, Timeline, highest_supported, nearest_rank,  # noqa: E402
                   percentile, samples_beyond)


class TestTailSelection:
    def test_p90_needs_ten_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert percentile(list(range(1, 101)), 90) == 90
        with pytest.raises(ValueError, match="9 beyond"):
            percentile(list(range(99)), 90)

    def test_p99_needs_a_thousand(self):
        assert percentile(list(range(1, 1001)), 99) == 990
        with pytest.raises(ValueError):
            percentile(list(range(999)), 99)

    def test_highest_supported_walks_the_ladder(self):
        assert highest_supported(19) is None
        assert highest_supported(20) == 50
        assert highest_supported(100) == 90
        assert highest_supported(199) == 90
        assert highest_supported(200) == 95
        assert highest_supported(1000) == 99
        assert highest_supported(10_000) == 99.9

    def test_nearest_rank_is_a_measured_sample(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert nearest_rank(values, 50) == 3.0
        assert nearest_rank(values, 100) == 5.0
        assert nearest_rank([], 50) == 0.0


class TestSelfTimeFold:
    def test_nested_spans(self):
        # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,7]; E[11,12] is a
        # second top-level span with the same name as C.
        spans = [
            ("A", 0.0, 10.0, -1, None),
            ("B", 1.0, 4.0, 0, [1]),
            ("C", 2.0, 3.0, 1, None),
            ("D", 5.0, 7.0, 0, None),
            ("C", 11.0, 12.0, -1, None),
        ]
        agg = fold(spans)
        assert agg["A"] == [1, 10.0, 5.0]
        assert agg["B"] == [1, 3.0, 2.0]
        assert agg["C"] == [2, 2.0, 2.0]
        assert agg["D"] == [1, 2.0, 2.0]
        assert child_time(spans, "A") == (10.0, 5.0)

    def test_unfinished_spans_are_skipped(self):
        spans = [("A", 0.0, 4.0, -1, None), None, ("B", 1.0, 2.0, 0, None)]
        assert fold(spans)["A"] == [1, 4.0, 3.0]

    def test_tracer_self_times_add_up_to_the_top_span(self):
        class Model:
            def inner(self):
                time.sleep(0.002)

            def outer(self):
                self.inner()
                self.inner()
                time.sleep(0.001)

        model = Model()
        tracer = Tracer()
        tracer.wrap(model, "inner", "m.inner")
        tracer.wrap(model, "outer", "m.outer", rids=lambda args, out: [7])
        model.outer()
        tracer.close()
        agg = fold(tracer.spans)
        assert agg["m.inner"][0] == 2
        assert agg["m.outer"][0] == 1
        total = agg["m.outer"][1]
        assert agg["m.outer"][2] + agg["m.inner"][2] == pytest.approx(total)
        assert agg["m.outer"][2] >= 0.001
        top = [s for s in tracer.spans if s[3] < 0]
        assert len(top) == 1 and top[0][4] == [7]

    def test_close_restores_wrapped_and_patched_attributes(self):
        class Ledger:
            def merge(self):
                return "merged"

        ledger = Ledger()
        original = Ledger.__dict__["merge"]
        tracer = Tracer()
        tracer.wrap(ledger, "merge", "x.merge")
        assert "merge" in vars(ledger)
        tracer.close()
        assert "merge" not in vars(ledger)
        tracer.patch(Ledger, "merge", "ledger.merge")
        assert Ledger().merge() == "merged"
        assert fold(tracer.spans)["ledger.merge"][0] == 1
        tracer.close()
        assert Ledger.__dict__["merge"] is original


class TestDueTimeAccounting:
    def test_tick_overrunning_several_due_times(self):
        clock = DueClock([0.01, 0.02, 0.03, 0.5])
        assert clock.release(0.005) == []
        # One tick ran from 0.005 to 0.05 and overran three due times: all
        # three go out together, each late by its own amount.
        released = clock.release(0.05)
        assert [i for i, _ in released] == [0, 1, 2]
        assert [round(lag, 9) for _, lag in released] == [0.04, 0.03, 0.02]
        assert clock.next_due_s == 0.5
        timeline = Timeline()
        for index, _ in released:
            timeline.open(index, [0.01, 0.02, 0.03][index])
        # The next tick returns the first token of each at 0.08: TTFT counts
        # from the due time, not from the late submit at 0.05.
        for index, _ in released:
            timeline.stamp(index, 1, 0.08)
        assert [round(timeline.ttft_s(i), 9) for i in range(3)] == [0.07, 0.06, 0.05]
        assert not clock.exhausted
        assert [i for i, _ in clock.release(1.0)] == [3]
        assert clock.exhausted and clock.next_due_s is None
        assert len(clock.lags_s) == 4

    def test_tbt_credits_tokens_to_the_tick_that_produced_them(self):
        timeline = Timeline()
        timeline.open(1, 0.0)
        timeline.stamp(1, 1, 0.010)
        timeline.stamp(1, 1, 0.015)  # no new token this tick
        timeline.stamp(1, 3, 0.030)  # two tokens landed in one tick
        assert timeline.tokens_s[1] == [0.010, 0.030, 0.030]
        assert timeline.tbt_s(1) == pytest.approx([0.020, 0.0])
        assert timeline.mean_tbt_s(1) == pytest.approx(0.010)


class TestContract:
    def test_benchmark_json_matches_the_harness(self):
        import run
        from layers import PER_LAYER
        from workloads import WORKLOADS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
            == [tuple(m) for m in run.END_TO_END]
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
            == [tuple(m) for m in PER_LAYER]
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["bound"] == max(
            m["bound"] for m in spec["end_to_end"])

    def test_inputs_depend_only_on_the_seed(self):
        pytest.importorskip("numpy")
        from workloads import WORKLOADS, make_inputs

        for workload in WORKLOADS.values():
            a = make_inputs(workload, 3, 4.0, 64)
            b = make_inputs(workload, 3, 4.0, 64)
            c = make_inputs(workload, 4, 4.0, 64)
            key = lambda reqs: [(r.prompt, r.max_new_tokens, r.arrival_s) for r in reqs]
            assert key(a) == key(b)
            assert key(a) != key(c)
