"""The benchmark's four workloads.

Each workload object is driven by ``worker.py`` in one fresh process:
``setup()`` (timed by the parent as part of ``setup_s``), ``run(seconds)``
(the timed phase, returning an :class:`Outcome`), ``teardown()``, then
``checks()`` — output checks that need no stored reference, so a seed
never seen before is checked just as well — and ``digest()``, a hash of
the outputs that lets two commits be compared on one seed.

Inputs are generated from the workload seed alone; the library only ever
sees what the benchmark generated.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchlib import loadgen, stats


@dataclass
class Outcome:
    """What the timed phase measured.

    ``run_s`` is the wall time of the fixed work; ``op_ms`` the latency of
    each operation (an experiment, a unit of solves or a request; ``inf``
    for a failure);
    ``completed_per_s`` the operations completed per second at saturation.
    """

    run_s: float
    op_ms: List[float]
    completed_per_s: float
    attempted: int
    failed: int
    extras: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def satisfaction_limit(d_threshold: float) -> float:
    """The library's satisfaction tolerance around ``d_t``."""
    return d_threshold + 1e-12 + 1e-9 * d_threshold


def augmented(graph, shortcuts):
    """Copy of *graph* with perfectly reliable shortcut edges added."""
    copy = graph.copy()
    for u, v in shortcuts:
        copy.add_edge(u, v, failure_probability=0.0)
    return copy


def dijkstra_distances(graph, shortcuts, pairs, cutoff=None) -> List[float]:
    """Plain-Dijkstra distance of each pair on *graph* plus *shortcuts*,
    independent of every distance-oracle tier."""
    from repro.graph.paths import dijkstra

    full = augmented(graph, shortcuts)
    by_source: Dict[Any, Dict[Any, float]] = {}
    out = []
    for u, w in pairs:
        if u not in by_source:
            by_source[u] = dijkstra(full, u, cutoff=cutoff)
        out.append(by_source[u].get(w, math.inf))
    return out


def dijkstra_sigma(graph, shortcuts, pairs, d_threshold: float) -> int:
    limit = satisfaction_limit(d_threshold)
    return sum(
        1 for d in dijkstra_distances(graph, shortcuts, pairs, cutoff=limit)
        if d <= limit
    )


def best_path_probabilities(graph, shortcuts, pairs) -> List[float]:
    """Analytic best-path delivery probability ``exp(-d)`` per pair."""
    return [
        math.exp(-d) if math.isfinite(d) else 0.0
        for d in dijkstra_distances(graph, shortcuts, pairs)
    ]


# ------------------------------------------------------------ campaign


class _Experiments:
    """Experiments run serially through ``run_all_report`` at paper scale;
    one run of :attr:`names`, in a fresh process, is the fixed unit of
    work (the parent decides how many units make a run)."""

    names: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.report = None

    def setup(self, seconds: float) -> None:
        from repro.experiments.runner import run_all_report

        self._run_all_report = run_all_report

    def run(self, seconds: float) -> Outcome:
        start = time.perf_counter()
        self.report = self._run_all_report(
            scale="paper", seed=self.seed, names=list(self.names), jobs=1
        )
        wall = time.perf_counter() - start
        failed = len(self.report.failures)
        # The operation is the whole unit: per-experiment times differ by
        # 100x, so their percentiles would rank experiments, not measure.
        return Outcome(
            run_s=wall,
            op_ms=[wall * 1e3 if not failed else math.inf],
            completed_per_s=(len(self.names) - failed) / wall,
            attempted=len(self.names),
            failed=failed,
        )

    def teardown(self) -> None:
        pass

    def results(self) -> Dict[str, Any]:
        return {
            entry[0].name: entry[0]
            for entry in self.report.results
            if entry is not None
        }

    def _completed(self) -> Check:
        return Check(
            "every experiment completed",
            not self.report.failures and set(self.results()) == set(self.names),
            f"failures={len(self.report.failures)}",
        )


class Campaign(_Experiments):
    """The paper's evaluation path, serially: tables I/II and figs 1, 2, 4
    at paper scale."""

    names = ("table1", "table2", "fig1", "fig2", "fig4")

    def checks(self) -> List[Check]:
        results = self.results()
        out = [self._completed()]
        for name in ("table1", "table2"):
            if name in results:
                out.extend(_table_checks(results[name]))
        if "fig1" in results:
            out.append(self._fig1_check(results["fig1"]))
        if "fig2" in results:
            out.extend(_fig2_checks(results["fig2"]))
        if "fig4" in results:
            out.extend(_fig4_checks(results["fig4"]))
        return out

    def _fig1_check(self, result) -> Check:
        """Both placements' σ (AA and best-of-random) re-verified with
        Dijkstra on the rebuilt instance, and matching the per-pair table.

        The note's "AA >= random" is the figure's expected shape, not an
        invariant: AA is an approximation, and best-of-random beats it by
        one pair on about 0.15% of seeds (160, 333 and 895 of 0-1999), so
        the comparison is reported, not required.
        """
        from repro.experiments.config import get_scale
        from repro.experiments.workloads import rg_workload

        preset = get_scale("paper")
        instance = rg_workload(seed=self.seed, n=preset.fig1_n).instance(
            preset.fig1_p, m=preset.fig1_m, k=preset.fig1_k,
            seed=(self.seed, "fig1"),
        )
        graph, d_t = instance.graph, instance.d_threshold
        pairs = [
            tuple(int(v) for v in row[0].split("-"))
            for row in result.tables[1]["rows"]
        ]
        ok = pairs == [tuple(map(int, pair)) for pair in instance.pairs]
        details = []
        for column, (name, sigma, edges) in enumerate(
            result.tables[0]["rows"], start=1
        ):
            shortcuts = [
                tuple(int(v) for v in edge.split("-"))
                for edge in edges.split("; ") if edge != "(none)"
            ]
            verified = dijkstra_sigma(graph, shortcuts, pairs, d_t)
            flagged = sum(
                bool(row[column]) for row in result.tables[1]["rows"]
            )
            ok &= sigma == verified == flagged
            details.append(f"{name} {sigma} (Dijkstra {verified})")
        return Check("fig1 AA and random sigma exact (Dijkstra)", ok,
                     "; ".join(details))

    def digest(self) -> Dict[str, str]:
        results = self.results()
        return {
            "outputs": _digest([results[n].to_json() for n in sorted(results)])
        }


def _table_checks(result) -> List[Check]:
    """σ(F_ν)/ν(F_ν) lies in [0, 1] because σ <= ν; the k-trend note is
    present."""
    cells = [
        value for row in result.tables[0]["rows"] for value in row[1:]
    ]
    in_range = all(
        isinstance(v, (int, float)) and math.isfinite(v)
        and -1e-9 <= v <= 1.0 + 1e-9
        for v in cells
    )
    return [
        Check(f"{result.name} ratios in [0, 1]", in_range and bool(cells),
              f"{len(cells)} cells"),
        Check(f"{result.name} k-trend note",
              any(note.startswith("k-trend per p_t column")
                  for note in result.notes)),
    ]


def _nondecreasing(values: Sequence[float]) -> bool:
    return all(b >= a for a, b in zip(values, values[1:]))


def _counts_in_range(values: Sequence[Any], m: int) -> bool:
    return all(isinstance(v, int) and 0 <= v <= m for v in values)


def _fig2_checks(result) -> List[Check]:
    """Per (workload, p_t): AA's σ never drops as k grows (each greedy
    placement extends the smaller-budget one and σ is monotone) and every
    value is a pair count within [0, m]."""
    m_of = {"(a)": result.params["m_rg"], "(b)": result.params["m_gowalla"]}
    ok_range = ok_monotone = True
    for figure in result.series:
        m = m_of[figure["title"][:3]]
        for name, values in figure["series"]:
            ok_range &= _counts_in_range(values, m)
            if name.startswith("AA"):
                ok_monotone &= _nondecreasing(values)
    return [
        Check("fig2 sigma values are pair counts", ok_range),
        Check("fig2 AA nondecreasing in k", ok_monotone),
    ]


def _fig4_checks(result) -> List[Check]:
    """EA/AEA report best-so-far, so their traces never drop; AA is one
    value per k."""
    ok = True
    for figure in result.series:
        m = int(re.search(r"m=(\d+)", figure["title"]).group(1))
        for name, values in figure["series"]:
            ok &= _counts_in_range(values, m)
            if name.startswith("AA"):
                ok &= len(set(values)) == 1
            else:
                ok &= _nondecreasing(values)
    return [Check("fig4 traces are best-so-far pair counts", ok)]


# --------------------------------------------------------- reliability


class Reliability(_Experiments):
    """Fault-injection robustness and simulated delivery at paper scale:
    Monte-Carlo sampling and perturbed-graph APSP rebuilds dominate."""

    names = ("robustness", "delivery")
    #: RG size both experiments request at paper scale; their params
    #: record the generated graph's node count, which can be smaller.
    requested_n = 100

    def checks(self) -> List[Check]:
        results = self.results()
        out = [self._completed()]
        if "robustness" in results:
            out.extend(self._robustness_checks(results["robustness"]))
        if "delivery" in results:
            out.extend(self._delivery_checks(results["delivery"]))
        return out

    def _solved(self, tag: str, params: Dict[str, Any]):
        """The experiment's instance and AA placement, rebuilt from its
        recipe outside the timed phase."""
        from repro.core.sandwich import SandwichApproximation
        from repro.experiments.workloads import rg_workload

        workload = rg_workload(seed=(self.seed, tag), n=self.requested_n)
        instance = workload.instance(
            params["p_t"], m=params["m"], k=params["k"],
            seed=(self.seed, "pairs"),
        )
        if instance.n != params["n"]:
            raise ValueError(
                f"{tag}: rebuilt graph has {instance.n} nodes, the "
                f"experiment reports {params['n']}; its recipe changed"
            )
        return instance, SandwichApproximation(instance).solve()

    def _robustness_checks(self, result) -> List[Check]:
        from repro.failure.injection import drift_failure_probabilities

        params = result.params
        instance, placement = self._solved("robustness", params)
        graph, pairs = instance.graph, instance.pairs
        d_t, trials = instance.d_threshold, params["trials"]
        edges = placement.edges
        baseline = params["baseline_sigma"]
        base_sigma = dijkstra_sigma(graph, [], pairs, d_t)
        out = [Check(
            "robustness baseline sigma exact (Dijkstra)",
            baseline == placement.sigma
            == dijkstra_sigma(graph, edges, pairs, d_t),
            f"reported {baseline}",
        )]
        exact = bounded = rates_ok = True
        details = []
        for mode, severity, sigma, _frac, rate, *_rest in (
            result.tables[0]["rows"]
        ):
            probabilities = None
            if mode == "probability_drift":
                drifted = drift_failure_probabilities(graph, severity)
                exact &= sigma == dijkstra_sigma(drifted, edges, pairs, d_t)
                probabilities = best_path_probabilities(drifted, edges, pairs)
            elif severity == 0.0:
                exact &= sigma == baseline
                probabilities = best_path_probabilities(graph, edges, pairs)
            elif mode == "shortcut_outage" and severity == 1.0:
                exact &= sigma == base_sigma
                probabilities = best_path_probabilities(graph, [], pairs)
            elif mode == "shortcut_outage":
                bounded &= base_sigma <= sigma <= baseline
            else:  # node loss only removes paths, pairs and shortcuts
                bounded &= 0 <= sigma <= baseline
            rates_ok &= 0.0 <= rate <= 1.0
            if probabilities is not None:
                ok, expected, tol = stats.rate_matches(
                    rate, probabilities, trials
                )
                rates_ok &= ok
                if not ok:
                    details.append(
                        f"{mode}@{severity}: {rate:.4f} vs "
                        f"{expected:.4f}±{tol:.4f}"
                    )
        out += [
            Check("robustness sigma columns exact where determined", exact),
            Check("robustness sigma within bounds elsewhere", bounded),
            Check("robustness delivery matches exp(-d) within binomial "
                  "tolerance", rates_ok, "; ".join(details)),
            Check("robustness note: severity 0 reproduces the placement",
                  any("in all modes: True" in n for n in result.notes)),
        ]
        return out

    def _delivery_checks(self, result) -> List[Check]:
        params = result.params
        instance, placement = self._solved("delivery", params)
        graph, pairs = instance.graph, instance.pairs
        trials = params["trials"]
        out = [Check(
            "delivery maintained count exact (Dijkstra)",
            params["maintained"] == placement.sigma == dijkstra_sigma(
                graph, placement.edges, pairs, instance.d_threshold
            ),
            f"reported {params['maintained']}",
        )]
        rates = {(row[0], row[1]): row[2] for row in result.tables[0]["rows"]}
        probabilities = {
            label: best_path_probabilities(graph, shortcuts, pairs)
            for label, shortcuts in (("before", []),
                                     ("after", placement.edges))
        }
        details = []
        ok_best = True
        for label in ("before", "after"):
            ok, expected, tol = stats.rate_matches(
                rates[(label, "best_path")], probabilities[label], trials
            )
            ok_best &= ok
            details.append(
                f"{label}: {rates[(label, 'best_path')]:.4f} vs "
                f"{expected:.4f}±{tol:.4f}"
            )
        ordered = all(
            stats.not_below(rates[(label, high)], rates[(label, low)],
                            trials, trials)
            for label in ("before", "after")
            for high, low in (("flooding", "multipath"),
                              ("multipath", "best_path"))
        )
        out += [
            Check("delivery best-path rate matches exp(-d) within binomial "
                  "tolerance", ok_best, "; ".join(details)),
            Check("delivery flooding >= multipath >= best_path", ordered),
            self._violations_check(
                result, placement, probabilities["after"], trials
            ),
        ]
        return out

    #: The delivery experiment flags a maintained pair when the Wilson
    #: upper bound (this z) of its simulated rate is below ``1 - p_t``.
    violation_z = 3.3

    def _violations_check(self, result, placement, probabilities, trials):
        """The experiment's model-violation count is zero up to chance.

        A correct pair just above ``1 - p_t`` is still flagged with
        probability up to about 6e-4, so over its maintained pairs a run
        flags one about once in a thousand seeds. The count may not exceed
        what chance explains (tail 1e-6, exact from the analytic rates).
        """
        pattern = re.compile(r"contradicts the model: (\d+) \(expected 0\)")
        counts = [
            int(match.group(1)) for match in map(pattern.search, result.notes)
            if match
        ]
        requirement = 1.0 - result.params["p_t"]
        risks = [
            stats.wilson_flag_risk(p, trials, requirement, self.violation_z)
            for p, maintained in zip(probabilities, placement.satisfied)
            if maintained
        ]
        allowed = stats.flags_allowed(risks)
        return Check(
            "delivery note: model violations within chance",
            len(counts) == 1 and counts[0] <= allowed,
            f"{counts} flagged, at most {allowed} by chance",
        )

    def digest(self) -> Dict[str, str]:
        results = self.results()
        exact = {}
        if "robustness" in results:
            exact["robustness"] = [
                row[:3] for row in results["robustness"].tables[0]["rows"]
            ]
        if "delivery" in results:
            exact["delivery"] = results["delivery"].params["maintained"]
        return {
            "outputs": _digest(
                [results[n].to_json() for n in sorted(results)]
            ),
            "exact": _digest(exact),
        }


# --------------------------------------------------------- large graph


class LargeGraph:
    """σ-greedy placements with ``oracle="auto"`` on scaled RG graphs:
    n=3000 resolves to the sparse tier and n=12000 to the hub tier.

    The graphs are fixed networks (one generator seed, like a dataset);
    the workload seed draws the important pairs, so every seed asks for
    the same amount of oracle work."""

    #: (n, p_t, m, k); radius shrinks as 0.2*sqrt(100/n) so the average
    #: degree stays that of the paper's n=100 RG graph.
    sizes = ((3000, 0.03, 60, 5), (12000, 0.03, 60, 5))
    network_seed = 1
    #: Nominal seconds of one unit (one solve per size).
    nominal_s = 0.6

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: List[Tuple[Any, List, int, float]] = []
        self.solves: List[Dict[str, Any]] = []

    def setup(self, seconds: float) -> None:
        from repro.netgen.geometric import random_geometric_network
        from repro.netgen.pairs import sample_important_pairs

        for n, p_t, m, k in self.sizes:
            network = random_geometric_network(
                n, radius=0.2 * math.sqrt(100 / n), max_link_failure=0.08,
                seed=(self.network_seed, "large_graph", n),
            )
            pairs = sample_important_pairs(
                network.graph, m, p_t, seed=(self.seed, "pairs", n)
            )
            self.inputs.append((network.graph, pairs, k, p_t))

    def _solve(self, graph, pairs, k, p_t) -> Dict[str, Any]:
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.greedy import greedy_placement
        from repro.core.problem import MSCInstance

        instance = MSCInstance(graph, pairs, k, p_threshold=p_t, oracle="auto")
        evaluator = SigmaEvaluator(instance)
        placement = greedy_placement(evaluator, k)
        return {
            "n": instance.n,
            "tier": instance.oracle_kind,
            "edges": instance.edges_to_nodes(placement),
            "sigma": int(evaluator.value(placement)),
            "d_t": instance.d_threshold,
        }

    def run(self, seconds: float) -> Outcome:
        units = max(1, int(seconds / self.nominal_s))
        unit_ms = []
        for _ in range(units):
            start = time.perf_counter()
            for graph, pairs, k, p_t in self.inputs:
                self.solves.append(self._solve(graph, pairs, k, p_t))
            unit_ms.append((time.perf_counter() - start) * 1e3)
        # Fixed work (units x sizes), timed robustly against a stray stall:
        # units times the median unit wall.
        run_s = units * stats.median(unit_ms) / 1e3
        return Outcome(
            run_s=run_s,
            op_ms=unit_ms,
            completed_per_s=units * len(self.inputs) / run_s,
            attempted=len(self.solves),
            failed=0,
            extras={"units": units, "tiers": self.tiers()},
        )

    def teardown(self) -> None:
        pass

    def tiers(self) -> List[str]:
        return [solve["tier"] for solve in self.solves[: len(self.sizes)]]

    def checks(self) -> List[Check]:
        per_size = len(self.sizes)
        first = self.solves[:per_size]
        out = [Check(
            "every repeat gives the same placement",
            all(
                solve == first[i % per_size]
                for i, solve in enumerate(self.solves)
            ),
        )]
        for (graph, pairs, _k, _p), solve in zip(self.inputs, first):
            verified = dijkstra_sigma(
                graph, solve["edges"], pairs, solve["d_t"]
            )
            out.append(Check(
                f"n={solve['n']} ({solve['tier']}) sigma re-verified with "
                "Dijkstra",
                verified == solve["sigma"],
                f"reported {solve['sigma']}, Dijkstra {verified}",
            ))
        return out

    def digest(self) -> Dict[str, str]:
        return {"outputs": _digest(self.solves[: len(self.sizes)])}


# --------------------------------------------------------------- serve


class Serve:
    """A live ``repro serve --jobs 2 --max-substrates 2`` process with a
    heavy RG n=800 substrate and the light Gowalla substrate resident,
    driven open-loop and then closed-loop.

    Both substrates are fixed networks (the Gowalla dataset and one RG
    deployment); the workload seed draws the requests' pairs, the order of
    the mix and the audits."""

    heavy = {"n": 800, "radius": 0.15, "p_t": 0.03, "m": 12, "k": 3,
             "network_seed": 1}
    light = {"p_t": 0.23, "m": 10, "k": 3}
    #: Distinct request recipes per substrate.
    pool_size = 16
    #: Open-loop requests: enough that ten lie beyond the 95th percentile
    #: with margin.
    open_requests = 400
    closed_items = 300
    closed_clients = 8
    #: The generator has fallen behind its schedule, and the run is
    #: invalid, when more than 1% of items leave later than this (ms).
    max_lag_ms = 50.0

    def __init__(self, seed: int, *, spans_path: Optional[str] = None) -> None:
        self.seed = seed
        self.spans_path = spans_path
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.records: List[loadgen.Record] = []
        self.stats: Dict[str, Any] = {}
        self.exit_code: Optional[int] = None
        self.peak_rss_mb = 0.0

    # -------------------------------------------------------- inputs

    def specs(self) -> Dict[str, Dict[str, Any]]:
        return {
            "heavy": {
                "kind": "rg", "seed": self.heavy["network_seed"],
                "n": self.heavy["n"],
                "radius": self.heavy["radius"],
            },
            "light": {"kind": "gowalla", "seed": None},
        }

    def _params(self, substrate: str) -> Dict[str, Any]:
        return self.heavy if substrate == "heavy" else self.light

    def setup(self, seconds: float) -> None:
        from repro.experiments.workloads import gowalla_workload, rg_workload
        from repro.netgen.pairs import eligible_pairs
        from repro.service.client import ServiceClient

        self.workloads = {
            "heavy": rg_workload(
                seed=self.heavy["network_seed"], n=self.heavy["n"],
                radius=self.heavy["radius"],
            ),
            "light": gowalla_workload(),
        }
        rng = random.Random(f"serve-pairs:{self.seed}")
        self.pools: Dict[str, List[List[List[int]]]] = {}
        for name, workload in self.workloads.items():
            params = self._params(name)
            candidates = eligible_pairs(
                workload.graph, params["p_t"], oracle=workload.oracle
            )
            self.pools[name] = [
                [list(pair) for pair in rng.sample(candidates, params["m"])]
                for _ in range(self.pool_size + 1)  # the last one primes
            ]
        self.open_items, self.open_offsets = loadgen.open_loop_schedule(
            self.seed, seconds, self.open_requests, self.pool_size
        )
        self.closed = loadgen.closed_loop_items(
            self.seed, self.closed_items, self.pool_size
        )
        self._start_server()
        with ServiceClient(port=self.port, timeout=120) as client:
            for name in ("heavy", "light"):
                client.place(
                    self.specs()[name], **self._place_fields(
                        name, self.pool_size
                    )
                )

    def _start_server(self) -> None:
        args = [
            "serve", "--port", "0", "--jobs", "2", "--max-substrates", "2",
        ]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [
                sys.executable,
                os.path.join(os.path.dirname(__file__), "..",
                             "serve_traced.py"),
                "--spans", self.spans_path, "--", *args,
            ]
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        self.server = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True
        )
        banner = self.server.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(match.group(1))

    def _place_fields(self, substrate: str, recipe: int) -> Dict[str, Any]:
        params = self._params(substrate)
        return {
            "solver": "sandwich",
            "k": params["k"],
            "pairs": self.pools[substrate][recipe],
            "p_threshold": params["p_t"],
            "seed": self.seed,
        }

    def payload(
        self, item: loadgen.Item, step: str, context: Dict[str, Any]
    ) -> Dict[str, Any]:
        spec = self.specs()[item.substrate]
        if step == "place":
            return {
                "op": "place", "workload": spec,
                **self._place_fields(item.substrate, item.recipe),
            }
        if step == "sigma":
            placed = context["placement"]
            return {
                "op": "sigma", "workload": spec, "pairs": placed["pairs"],
                "edges": placed["edges"],
                "p_threshold": self._params(item.substrate)["p_t"],
            }
        session = {"op": "whatif", "session": context["session"],
                   "action": step}
        if step == "open":
            fields = self._place_fields(item.substrate, item.recipe)
            session.update(
                workload=spec, k=fields["k"], pairs=fields["pairs"],
                p_threshold=fields["p_threshold"],
            )
        elif step == "suggest":
            session["count"] = 3
        return session

    # -------------------------------------------------------- phases

    def run(self, seconds: float) -> Outcome:
        return asyncio.run(self._phases())

    async def _phases(self) -> Outcome:
        connections = [
            await loadgen.Connection.open("127.0.0.1", self.port)
            for _ in range(2)
        ]
        try:
            generator = loadgen.LoadGenerator(connections, self.payload)
            open_window = await generator.open_loop(
                self.open_items, self.open_offsets
            )
            closed_window = await generator.closed_loop(
                self.closed, self.closed_clients
            )
            self.stats = (await connections[0].request({"op": "stats"}))[
                "result"
            ]
        finally:
            for connection in connections:
                await connection.close()
        self.records = generator.records
        open_records = loadgen.phase_records(self.records, "open")
        closed_records = loadgen.phase_records(self.records, "closed")
        closed_s = closed_window[1] - closed_window[0]
        closed_ok = sum(1 for record in closed_records if record.ok)
        lag = loadgen.generator_lag_ms(open_records)
        return Outcome(
            run_s=closed_s,
            op_ms=[record.latency_ms for record in open_records],
            completed_per_s=closed_ok / closed_s,
            attempted=len(self.records),
            failed=sum(1 for record in self.records if not record.ok),
            extras={
                "open_window": open_window,
                "closed_window": closed_window,
                "open": loadgen.phase_counts(open_records),
                "closed": loadgen.phase_counts(closed_records),
                "generator_lag_ms": stats.percentile(lag, 99.0),
                "stats": self.stats,
            },
        )

    def teardown(self) -> None:
        from repro.service.client import ServiceClient

        if self.server is None:
            return
        try:
            if self.server.poll() is None:
                with ServiceClient(port=self.port, timeout=60) as client:
                    client.shutdown()
            self.exit_code = self.server.wait(timeout=60)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )

    # -------------------------------------------------------- checks

    def checks(self) -> List[Check]:
        failure = loadgen.first_failure(self.records)
        lag = stats.percentile(
            loadgen.generator_lag_ms(
                loadgen.phase_records(self.records, "open")
            ),
            99.0,
        )
        out = [
            Check("every request answered ok", failure is None,
                  "" if failure is None else f"{failure.step}: "
                  f"{failure.result}"),
            Check("server reports no errors", self.stats.get("errors") == 0),
            Check("server exited cleanly", self.exit_code == 0,
                  f"exit code {self.exit_code}"),
            Check("load generator kept its schedule (run valid)",
                  lag <= self.max_lag_ms, f"p99 lag {lag:.1f} ms"),
        ]
        offline = _OfflineService(self)
        mismatches: Dict[str, int] = {"place": 0, "sigma": 0, "whatif": 0}
        for record in self.records:
            if not record.ok:
                continue
            expected = offline.expected(record)
            if json.dumps(record.result, sort_keys=True) != json.dumps(
                expected, sort_keys=True
            ):
                kind = "whatif" if record.kind == "session" else record.kind
                mismatches[kind] += 1
        for kind, count in mismatches.items():
            out.append(Check(
                f"every {kind} response identical to the offline library "
                "result", count == 0, f"{count} mismatches",
            ))
        return out

    def digest(self) -> Dict[str, str]:
        answers = sorted(
            (r.phase, r.item, r.step, json.dumps(r.result, sort_keys=True))
            for r in self.records
            if r.step in ("place", "sigma")
        )
        return {"outputs": _digest(answers)}


class _OfflineService:
    """The library results each served request must equal byte for byte,
    computed without the service (outside the timed phase) and memoized
    per distinct request."""

    def __init__(self, serve: Serve) -> None:
        self.serve = serve
        self.substrates = {
            name: workload.substrate()
            for name, workload in serve.workloads.items()
        }
        self._memo: Dict[str, Any] = {}

    def expected(self, record: loadgen.Record) -> Any:
        if record.kind == "session":
            key = json.dumps(["session", record.substrate, record.recipe])
            if key not in self._memo:
                self._memo[key] = self._session(
                    record.substrate, record.recipe
                )
            return {
                "session": record.payload["session"],
                **self._memo[key][record.step],
            }
        key = json.dumps(
            [record.substrate, record.step, record.payload], sort_keys=True
        )
        if key not in self._memo:
            compute = self._place if record.step == "place" else self._sigma
            self._memo[key] = compute(record.substrate, record.payload)
        return self._memo[key]

    @staticmethod
    def _request(payload: Dict[str, Any], k: int, **flags):
        from repro.core.substrate import PlacementRequest

        return PlacementRequest(
            [tuple(pair) for pair in payload["pairs"]], k,
            p_threshold=payload["p_threshold"], **flags,
        )

    def _place(self, substrate_name: str, payload: Dict[str, Any]):
        from repro.core.problem import MSCInstance
        from repro.core.registry import get_solver

        substrate = self.substrates[substrate_name]
        request = self._request(payload, payload["k"])
        instance = MSCInstance.from_parts(substrate, request)
        result = get_solver(payload["solver"])(
            instance, seed=payload["seed"]
        )
        return {
            "algorithm": result.algorithm,
            "edges": [[int(u), int(w)] for u, w in result.edges],
            "sigma": int(result.sigma),
            "satisfied": [bool(flag) for flag in result.satisfied],
            "evaluations": int(result.evaluations),
            "num_pairs": request.m,
            "pairs": [[int(u), int(w)] for u, w in request.pairs],
            "substrate": substrate.fingerprint,
        }

    def _sigma(self, substrate_name: str, payload: Dict[str, Any]):
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.problem import MSCInstance

        substrate = self.substrates[substrate_name]
        edges = payload["edges"]
        request = self._request(
            payload, len(edges), require_initially_unsatisfied=False,
            allow_degenerate=True,
        )
        instance = MSCInstance.from_parts(substrate, request)
        graph = instance.graph
        index_pairs = [
            tuple(sorted((graph.node_index(u), graph.node_index(w))))
            for u, w in edges
        ]
        satisfied = SigmaEvaluator(instance).satisfied(index_pairs)
        return {
            "sigma": int(sum(satisfied)),
            "satisfied": [bool(flag) for flag in satisfied],
            "num_pairs": request.m,
            "substrate": substrate.fingerprint,
        }

    def _session(self, substrate_name: str, recipe: int):
        """open → suggest → apply_best → close, replayed offline."""
        from repro.analysis.planner import PlacementPlanner

        fields = self.serve._place_fields(substrate_name, recipe)
        request = self._request(fields, fields["k"])
        planner = PlacementPlanner.from_parts(
            self.substrates[substrate_name], request
        )
        out = {"open": {"m": request.m, "k": request.k,
                        "sigma": planner.sigma}}
        out["suggest"] = {"suggestions": [
            {"edge": [int(u), int(v)], "sigma": int(value)}
            for (u, v), value in planner.suggest(count=3)
        ]}
        edge = planner.apply_best()
        out["apply_best"] = {
            "edge": None if edge is None else [int(edge[0]), int(edge[1])],
            "sigma": planner.sigma,
        }
        out["close"] = {"closed": True}
        return out


WORKLOADS = {
    "campaign": Campaign,
    "reliability": Reliability,
    "serve": Serve,
    "large_graph": LargeGraph,
}
