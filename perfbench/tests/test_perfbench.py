"""Tests of the benchmark's own logic: tail rule, spans, streams, checks, spec."""

import json
import re
from pathlib import Path

import pytest

from perfbench import checks, streams
from perfbench.measure import cumulative_at, mark_steal, quiet_slices, slices, supported_percentile, tail
from perfbench.spans import Span, Tracer, covered, self_times
from repro.datasets import load_benchmark
from repro.kg import AlignmentSet
from repro.service import CONFIDENCE, EXPLAIN, VERIFY

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# The percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(5, None), (10, None), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_tail_reports_sample_count_and_nearest_rank_values():
    samples = [float(value) for value in range(1, 201)]  # 1..200
    summary = tail(samples)
    assert summary == {"n": 200, "p50": 100.0, "tail_pct": 95.0, "tail": 190.0}
    assert sum(sample > summary["tail"] for sample in samples) == 10


def test_slices_take_medians_over_fixed_read_counts():
    reads = [(float(index + 1), float(index % 4)) for index in range(10)]  # one read per second
    cuts = slices(reads, writes=[2.5, 7.5], started=0.0, per_slice=4)
    assert len(cuts) == 2  # the trailing two reads fill no slice
    assert cuts[0] == {"begin": 0.0, "end": 4.0, "rps": 5 / 4.0, "p50": 1.0, "p99": 3.0}
    assert cuts[1]["rps"] == 5 / 4.0  # reads 5..8 and the write at 7.5


def test_steal_marks_each_slice_and_quiet_slices_keep_the_least_stolen_half():
    cuts = [{"begin": float(index), "end": float(index + 1), "rps": 100.0} for index in range(5)]
    # Stolen seconds so far, sampled every half second.
    steal = [(0.0, 0.0), (1.0, 0.0), (1.5, 0.25), (2.0, 0.5), (3.0, 0.55), (4.0, 0.75), (4.5, 0.8)]
    mark_steal(cuts, steal)
    assert [round(cut["steal"], 3) for cut in cuts] == [0.0, 0.5, 0.05, 0.2, 0.05]
    # Half of slice 1 was stolen: its 100 completions took half a second of CPU.
    assert [round(cut["unstolen_rps"], 1) for cut in cuts] == [100.0, 200.0, 105.3, 125.0, 105.3]
    kept = quiet_slices(cuts)
    assert [cut["begin"] for cut in kept] == [0.0, 2.0, 4.0]  # 3 of 5; slices 1 and 3 dropped
    assert cumulative_at(steal, 1.25) == 0.125
    assert cumulative_at(steal, 10.0) == 0.8 and cumulative_at(steal, -1.0) == 0.0


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_covered_unions_overlapping_children_clipped_to_the_parent():
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)]) == 5.0
    assert covered((0.0, 10.0), []) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 1, None, 1, 0.0, 10.0),
        Span("child", 2, 1, 1, 1.0, 4.0),
        Span("grandchild", 3, 2, 1, 2.0, 3.0),
        Span("child", 4, 1, 1, 6.0, 7.0),
    ]
    assert self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


class _Layer:
    def outer(self, items):
        return self.inner(items) + 1

    def inner(self, items):
        return len(items)


def test_tracer_wraps_entry_points_into_nested_spans_and_restores_them():
    tracer = Tracer()
    original = _Layer.__dict__["outer"]
    tracer.wrap(_Layer, "outer", "layer.outer")
    tracer.wrap(_Layer, "inner", "layer.inner", size=lambda _self, items: len(items))
    with tracer.span("root"):
        assert _Layer().outer([1, 2, 3]) == 4
    tracer.unwrap_all()
    assert _Layer.__dict__["outer"] is original
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["layer.inner"].parent_id == by_name["layer.outer"].span_id
    assert by_name["layer.outer"].parent_id == by_name["root"].span_id
    assert {span.trace_id for span in tracer.spans} == {by_name["root"].span_id}
    assert by_name["layer.inner"].size == 3


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_dataset():
    return load_benchmark("ZH-EN", scale=0.3)


def _copy(dataset):
    from perfbench.run import fresh_copy

    return fresh_copy(dataset)


def test_toggle_stream_leaves_both_kgs_equal_to_the_originals(small_dataset):
    triples = streams.toggle_triples(small_dataset, seed=7)
    assert {side for side, _ in triples} == {1, 2}
    reads = [("explain", "a", "b")] * (streams.READS_PER_WRITE * 2 * len(triples) * 2)
    events = streams.churn_events(reads, triples)
    writes = [spec for kind, spec in events if kind == "write"]
    assert len(writes) == 4 * len(triples)
    replica = _copy(small_dataset)
    streams.apply_writes(replica, writes)
    assert checks.check_graphs_equal(replica, small_dataset) == []


def test_restoring_writes_undo_a_stream_cut_mid_period(small_dataset):
    triples = streams.toggle_triples(small_dataset, seed=3)
    writes = streams.toggle_writes(triples, 7)  # four removed, three re-added
    replica = _copy(small_dataset)
    streams.apply_writes(replica, writes)
    assert checks.check_graphs_equal(replica, small_dataset) != []
    restore = streams.restoring_writes(writes)
    assert [(spec.op, spec.kg, spec.triple) for spec in restore] == [("add", *triples[3])]
    streams.apply_writes(replica, restore)
    assert checks.check_graphs_equal(replica, small_dataset) == []


def test_streams_are_reproducible_by_seed_and_churn_keeps_the_read_stream(small_dataset):
    pairs = sorted(small_dataset.test_alignment.pairs)
    first = streams.read_stream(streams.pair_population(pairs, 5), 500, 5)
    again = streams.read_stream(streams.pair_population(pairs, 5), 500, 5)
    other = streams.read_stream(streams.pair_population(pairs, 6), 500, 6)
    assert streams.digest(first) == streams.digest(again) != streams.digest(other)
    events = streams.churn_events(first, streams.toggle_triples(small_dataset, 5))
    assert [request for kind, request in events if kind == "read"] == first
    assert streams.digest(events) == streams.digest(streams.churn_events(again, streams.toggle_triples(small_dataset, 5)))


# ----------------------------------------------------------------------
# Correctness checks fail on corrupted results
# ----------------------------------------------------------------------
PAIR = ("zh:a", "en:a")
EXPLANATIONS = {PAIR: "explanation-a"}
CONFIDENCES = {PAIR: 0.75}


def test_read_check_accepts_direct_answers():
    reads = [(EXPLAIN, *PAIR, "explanation-a"), (CONFIDENCE, *PAIR, 0.75), (VERIFY, *PAIR, True)]
    assert checks.check_reads(reads, EXPLANATIONS, CONFIDENCES, threshold=0.5) == []


@pytest.mark.parametrize(
    "corrupted",
    [(EXPLAIN, *PAIR, "explanation-b"), (CONFIDENCE, *PAIR, 0.7500000001), (VERIFY, *PAIR, False)],
)
def test_read_check_fails_on_a_corrupted_answer(corrupted):
    assert checks.check_reads([corrupted], EXPLANATIONS, CONFIDENCES, threshold=0.5)


def test_pass_check_fails_when_a_pass_repairs_differently():
    alignment = AlignmentSet([("a", "x"), ("b", "y")])
    assert checks.check_passes_agree([alignment, alignment.copy()]) == []
    assert checks.check_passes_agree([alignment, AlignmentSet([("a", "y"), ("b", "x")])])


def test_graph_check_fails_when_a_triple_is_missing(small_dataset):
    replica = _copy(small_dataset)
    replica.kg2.remove_triple(sorted(replica.kg2.triples, key=lambda triple: triple.as_tuple())[0])
    assert checks.check_graphs_equal(replica, small_dataset) == ["kg2 differs from the original after the toggle writes"]


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_keys_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer") for item in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    assert all(set(item) == {"name", "why"} and len(item["why"]) <= 200 for item in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    assert all(set(metric) == {"name", "unit", "better"} for metric in SPEC["per_layer"])
    assert all(UNIT.match(metric["unit"]) for key in ("end_to_end", "per_layer") for metric in SPEC[key])
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_spec_workloads_match_the_runner():
    from perfbench.run import WORKLOADS

    assert tuple(item["name"] for item in SPEC["workloads"]) == WORKLOADS
