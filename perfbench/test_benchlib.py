"""Tests of the benchmark's own helpers (no library run needed).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_benchlib.py -q
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from benchlib import loadgen, stats  # noqa: E402
from benchlib.layers import PER_LAYER  # noqa: E402
from benchlib.spans import (  # noqa: E402
    Patcher, SpanSet, Tracer, outermost_mask, self_times,
)


# ------------------------------------------------- percentiles and samples


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0


def test_failed_requests_exceed_every_limit():
    values = [1.0] * 90 + [math.inf] * 10
    assert stats.percentile(values, 95) == math.inf
    assert stats.percentile(values, 50) == 1.0


def test_ten_beyond_rule():
    assert stats.samples_beyond(200, 95) == 10
    assert stats.supports_percentile(200, 95)
    assert not stats.supports_percentile(199, 95)
    assert stats.supports_percentile(1000, 99)
    assert not stats.supports_percentile(999, 99)
    assert not stats.supports_percentile(0, 50)


def test_timing_summary_reports_support():
    summary = stats.timing_summary([float(v) for v in range(240)])
    assert summary["count"] == 240 and summary["supported"]
    assert summary["p50"] == 119.0
    assert not stats.timing_summary([1.0, 2.0])["supported"]


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
    assert stats.quartile_spread([5.0]) == 0.0


# ---------------------------------------------------------- span arithmetic


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] root; 1: [1, 4] child of 0; 2: [2, 3] child of 1;
    # 3: [5, 9] child of 0; 4: [20, 21] second root.
    parents = np.array([-1, 0, 1, 0, -1])
    starts = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    assert self_times(parents, starts, ends).tolist() == pytest.approx(
        [3.0, 2.0, 1.0, 4.0, 1.0]
    )


def test_self_times_sum_to_root_durations():
    parents = np.array([-1, 0, 1, 1, 0])
    starts = np.array([0.0, 0.5, 0.6, 1.0, 3.0])
    ends = np.array([4.0, 2.5, 0.9, 2.0, 3.5])
    total = self_times(parents, starts, ends).sum()
    assert total == pytest.approx(4.0)


def test_outermost_mask_counts_nested_group_once():
    # a(0) > b(1) > a(2) > a(3); a(4) root
    parents = np.array([-1, 0, 1, 2, -1])
    in_group = np.array([True, False, True, True, True])
    assert outermost_mask(parents, in_group).tolist() == [
        True, False, False, False, True,
    ]


def test_tracer_records_nesting_and_round_trips(tmp_path):
    tracer = Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.span(leaf, "layer.leaf")

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = tracer.span(outer, "layer.outer")
    counted = tracer.counting(lambda: None, "calls")
    assert traced_outer(1) == 4
    counted()
    counted()
    path = str(tmp_path / "spans.npz")
    tracer.write(path)
    spans = SpanSet.load(path)
    names = [spans.names[i] for i in spans.name_ids]
    assert names == ["layer.outer", "layer.leaf", "layer.leaf"]
    assert spans.parents.tolist() == [-1, 0, 0]
    assert spans.counter("calls") == 2
    assert spans.self_time[0] == pytest.approx(
        spans.durations[0] - spans.durations[1:].sum()
    )


def test_patcher_rebinds_imported_names_and_restores():
    import types

    source = types.ModuleType("fakepkg.source")
    consumer = types.ModuleType("fakepkg.consumer")

    def original():
        return "original"

    source.fn = original
    consumer.fn = original
    consumer.registry = {"entry": original}
    sys.modules["fakepkg.source"] = source
    sys.modules["fakepkg.consumer"] = consumer
    try:
        patch = Patcher("fakepkg")
        patch.function(source, "fn", lambda fn: (lambda: "wrapped"))
        assert consumer.fn() == "wrapped"
        assert consumer.registry["entry"]() == "wrapped"
        patch.restore()
        assert consumer.fn is original and source.fn is original
        assert consumer.registry["entry"] is original
    finally:
        del sys.modules["fakepkg.source"], sys.modules["fakepkg.consumer"]


# ------------------------------------------------------ Monte-Carlo checks


def _simulated_mean_rate(probabilities, trials, rng, bias=0.0):
    """Mean per-pair rate with pairs sharing each trial's uniform draw
    (perfect correlation: the tolerance's worst case)."""
    draws = rng.random(trials)
    rates = [
        float(np.mean(draws < min(p + bias, 1.0))) for p in probabilities
    ]
    return sum(rates) / len(rates)


def test_rate_check_accepts_correct_sampler_on_any_stream():
    probabilities = [0.95, 0.9, 0.8, 0.6, 0.99, 1.0, 0.0]
    for seed in range(200):
        rng = np.random.default_rng(seed)
        observed = _simulated_mean_rate(probabilities, 2000, rng)
        ok, expected, _tol = stats.rate_matches(observed, probabilities, 2000)
        assert ok, (seed, observed, expected)


def test_rate_check_rejects_biased_sampler():
    probabilities = [0.9, 0.8, 0.7, 0.6]
    rejected = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        observed = _simulated_mean_rate(
            probabilities, 2000, rng, bias=-0.1
        )
        ok, _expected, _tol = stats.rate_matches(
            observed, probabilities, 2000
        )
        rejected += not ok
    assert rejected == 50


def test_rate_tolerance_certain_pairs_allow_half_a_trial():
    assert stats.rate_tolerance([1.0, 0.0], 400) == pytest.approx(0.5 / 400)


def test_not_below_allows_noise_but_not_inversion():
    assert stats.not_below(0.80, 0.81, 2000, 2000)
    assert not stats.not_below(0.70, 0.80, 2000, 2000)


def test_binomial_cdf_matches_direct_sum():
    trials, p = 30, 0.7
    pmf = [
        math.comb(trials, c) * p**c * (1 - p) ** (trials - c)
        for c in range(trials + 1)
    ]
    for count in (-1, 0, 12, 21, 30):
        assert stats.binomial_cdf(count, trials, p) == pytest.approx(
            sum(pmf[: count + 1]), abs=1e-12
        )


def test_wilson_flag_risk_is_small_at_and_above_the_requirement():
    at = stats.wilson_flag_risk(0.9, 2000, 0.9, 3.3)
    assert 1e-5 < at < 1e-3
    assert stats.wilson_flag_risk(0.95, 2000, 0.9, 3.3) < at * 1e-6
    assert stats.wilson_flag_risk(0.8, 2000, 0.9, 3.3) > 0.99


def test_flags_allowed_tolerates_chance_but_not_a_pattern():
    assert stats.flags_allowed([]) == 0
    assert stats.flags_allowed([1e-9] * 40) == 0
    # Forty pairs at the requirement: one false alarm is chance, five
    # are not.
    risks = [stats.wilson_flag_risk(0.9, 2000, 0.9, 3.3)] * 40
    assert 1 <= stats.flags_allowed(risks) < 5


# ------------------------------------------------------- schedule and mix


def test_open_loop_schedule_is_deterministic_per_seed():
    first = loadgen.open_loop_schedule(7, 12.0, 240, 16)
    again = loadgen.open_loop_schedule(7, 12.0, 240, 16)
    other = loadgen.open_loop_schedule(8, 12.0, 240, 16)
    assert first == again
    assert first[0] != other[0]


def test_open_loop_schedule_has_enough_requests_evenly_spaced():
    items, offsets = loadgen.open_loop_schedule(3, 12.0, 240, 16)
    assert sum(item.requests for item in items) >= 240
    assert stats.supports_percentile(
        sum(item.requests for item in items), 95
    )
    assert offsets[0] == 0.0 and offsets[-1] < 12.0
    gaps = {round(b - a, 9) for a, b in zip(offsets, offsets[1:])}
    assert len(gaps) == 1


def test_mix_is_deterministic_and_audits_earlier_placements():
    items = loadgen.closed_loop_items(5, 300, 16)
    assert items == loadgen.closed_loop_items(5, 300, 16)
    kinds = {item.kind for item in items}
    assert kinds == {"place", "sigma", "session"}
    for index, item in enumerate(items):
        assert 0 <= item.recipe < 16
        if item.kind == "sigma":
            target = items[item.target]
            assert item.target < index and target.kind == "place"
            assert (target.substrate, target.recipe) == (
                item.substrate, item.recipe
            )


def test_mix_shares_are_close_to_the_declared_mix():
    items = loadgen.make_mix(random.Random(0), 4000, 16)
    share = sum(1 for i in items if i.kind == "place") / len(items)
    assert share == pytest.approx(0.70, abs=0.03)


# ------------------------------------------------------- the spec itself


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    import run

    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _unit in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
