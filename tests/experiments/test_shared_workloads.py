"""Tests for the run-scoped workload registry behind ``run_all`` and the
fan-out: a registered workload is built once, APSP included, and every
task of the run reads it, in-process or in a forked worker."""

import json
import os
import sys

import pytest

from repro.experiments import robustness_exp as rexp
from repro.experiments import runner
from repro.experiments.config import get_scale
from repro.experiments.parallel import fanout
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_all_report, shared_workload_payload
from repro.experiments.workloads import (
    gowalla_workload,
    registered_workloads,
    rg_workload,
    rg_workload_key,
)
from repro.graph.distances import DistanceOracle
from repro.graph.graph import graph_signature

#: A small RG recipe (seed, n) for the fan-out probes.
_RECIPE = (3, 40)


def _probe(_task):
    """Fan-out worker: which process served the recipe's workload, how
    many APSP builds reading its matrix cost, and the graph it got."""
    seed, n = _RECIPE
    before = DistanceOracle.build_count
    workload = rg_workload(seed=seed, n=n)
    workload.oracle.matrix
    return (
        os.getpid(),
        DistanceOracle.build_count - before,
        graph_signature(workload.graph),
    )


class TestWorkloadRegistry:
    @pytest.mark.skipif(
        sys.platform != "linux", reason="the pool forks only on Linux"
    )
    def test_forked_workers_inherit_registered_workloads(self):
        seed, n = _RECIPE
        workload = rg_workload(seed=seed, n=n)
        with registered_workloads({rg_workload_key(seed, n): workload}):
            probes = fanout(_probe, range(4), jobs=2)
        assert {pid for pid, _, _ in probes}.isdisjoint({os.getpid()})
        assert [builds for _, builds, _ in probes] == [0] * 4
        assert {sig for _, _, sig in probes} == {
            graph_signature(workload.graph)
        }

    def test_workers_outside_the_registry_build_their_own(self):
        probes = fanout(_probe, range(4), jobs=2)
        assert {pid for pid, _, _ in probes}.isdisjoint({os.getpid()})
        assert [builds for _, builds, _ in probes] == [1] * 4

    def test_registration_computes_the_apsp_once(self):
        seed, n = _RECIPE
        workload = rg_workload(seed=seed, n=n)
        before = DistanceOracle.build_count
        with registered_workloads({rg_workload_key(seed, n): workload}):
            assert DistanceOracle.build_count == before + 1
            assert rg_workload(seed=seed, n=n) is workload
            workload.oracle.matrix
        assert DistanceOracle.build_count == before + 1

    def test_served_only_inside_its_run(self, monkeypatch):
        preset = get_scale("quick")
        seen = []

        def spy(scale, seed):
            seen.append(
                (rg_workload(seed=seed, n=preset.rg_n), gowalla_workload())
            )
            return ExperimentResult(name="spy", title="spy")

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", spy)
        monkeypatch.setitem(runner.EXPERIMENTS, "table2", spy)
        report = run_all_report(
            scale="quick", seed=1, names=["table1", "table2"]
        )
        assert report.ok
        (rg_a, gw_a), (rg_b, gw_b) = seen
        assert rg_a is rg_b and gw_a is gw_b  # one build for both tasks
        after = rg_workload(seed=1, n=preset.rg_n)
        assert after is not rg_a
        assert rg_workload(seed=1, n=preset.rg_n) is not after
        assert gowalla_workload() is not gw_a
        assert graph_signature(after.graph) == graph_signature(rg_a.graph)

    def test_registry_restored_after_an_error(self):
        seed, n = _RECIPE
        workload = rg_workload(seed=seed, n=n)
        with pytest.raises(RuntimeError):
            with registered_workloads({rg_workload_key(seed, n): workload}):
                raise RuntimeError("task failed")
        assert rg_workload(seed=seed, n=n) is not workload

    def test_short_rg_workload_served_not_rebuilt(self):
        # The generator can return fewer nodes than asked for: fig1's
        # paper-scale n=50 gives 47 on seed 1. The recipe still names the
        # registered workload, so fig1 reads it instead of rebuilding.
        n = get_scale("paper").fig1_n
        assert rg_workload(seed=1, n=n).graph.number_of_nodes() < n
        (key,) = shared_workload_payload(["fig1"], "paper", 1)
        assert key == rg_workload_key(1, n)
        before = DistanceOracle.build_count
        report = run_all_report(scale="paper", seed=1, names=["fig1"])
        assert report.ok
        assert DistanceOracle.build_count == before + 1


class TestRobustnessSweep:
    def test_harness_cached_and_oracle_built_exactly_once(self):
        rexp._HARNESS_CACHE.clear()
        before = DistanceOracle.build_count
        harness_a, sigma_a = rexp._prepared_harness("quick", 91)
        assert DistanceOracle.build_count == before + 1
        harness_b, sigma_b = rexp._prepared_harness("quick", 91)
        assert harness_b is harness_a  # served from the per-process cache
        assert sigma_b == sigma_a
        assert DistanceOracle.build_count == before + 1

    def test_parallel_sweep_byte_identical(self):
        rexp._HARNESS_CACHE.clear()
        serial = rexp.run_robustness(scale="quick", seed=5, jobs=1)
        rexp._HARNESS_CACHE.clear()
        parallel = rexp.run_robustness(scale="quick", seed=5, jobs=4)
        assert json.dumps(
            serial.to_json(), sort_keys=True
        ) == json.dumps(parallel.to_json(), sort_keys=True)
