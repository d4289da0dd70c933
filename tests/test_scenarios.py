"""The scenario engine's acceptance contract (repro.scenarios).

The headline test runs the ``chaos-drift`` proving-ground scenario —
gradual drift plus worker kills armed mid-traffic — twice at one seed and
asserts the two :meth:`ScenarioReport.deterministic_dict` cores are
*identical*, that the full drift -> retrain -> canary -> promote timeline
happened, and that not a single request was lost, degraded or cancelled
while workers were being killed.  The rest of the module covers the
deterministic building blocks: the catalog, the window/traffic streams and
the report fingerprint.
"""

import json

import numpy as np
import pytest

from repro.metrics.distribution import DriftConfig
from repro.scenarios import (
    DriftPhase,
    ScenarioEngine,
    ScenarioSpec,
    TrafficModel,
    WindowStream,
    get_scenario,
    scenario_names,
    table_fingerprint,
)
from repro.panda.generator import GeneratorConfig

#: The CI smoke's scaling of the proving-ground scenario: short horizon,
#: small windows, kills still armed inside the drift/retrain region.
CHAOS_DRIFT_SMALL = get_scenario("chaos-drift").scaled(
    ticks=8,
    window_rows=256,
    train_rows=1024,
    canary_rows=512,
    fault_arm_ticks=(3,),
)


@pytest.fixture(scope="module")
def chaos_reports():
    """The same scaled chaos-drift scenario run twice at seed 7, 2 workers."""
    def run():
        return ScenarioEngine(CHAOS_DRIFT_SMALL, seed=7, workers=2).run()

    return run(), run()


class TestChaosDriftAcceptance:
    def test_deterministic_core_is_identical_across_runs(self, chaos_reports):
        first, second = chaos_reports
        assert first.deterministic_dict() == second.deterministic_dict()
        assert first.output_fingerprint  # a real digest, not the empty default

    def test_full_drift_to_promotion_loop_ran(self, chaos_reports):
        report, _ = chaos_reports
        events = [entry["event"] for entry in report.timeline]
        for expected in (
            "faults_armed",
            "drift_detected",
            "retrain_started",
            "canary_registered",
            "canary_comparison",
            "promoted",
        ):
            assert expected in events, f"timeline missing {expected!r}: {events}"
        # The loop stages happen in causal order.
        assert events.index("drift_detected") < events.index("retrain_started")
        assert events.index("retrain_started") < events.index("canary_registered")
        assert events.index("canary_registered") < events.index("canary_comparison")
        assert events.index("canary_comparison") < events.index("promoted")
        assert report.retrains >= 1
        assert report.promotions >= 1
        assert report.drift_events
        assert report.final_prod_version != report.initial_version

    def test_zero_lost_requests_under_chaos(self, chaos_reports):
        report, _ = chaos_reports
        assert report.faults_armed == 1
        assert report.pool_restarts >= 1  # the armed kill really landed
        assert report.requests_served == report.requests_submitted
        assert report.request_errors == 0
        assert report.degraded_passes == 0
        assert report.cancelled_requests == 0
        assert report.rows_served == report.rows_requested
        assert report.windows_observed == CHAOS_DRIFT_SMALL.ticks

    def test_report_json_round_trips(self, chaos_reports):
        report, _ = chaos_reports
        decoded = json.loads(report.to_json())
        assert decoded["scenario"] == "chaos-drift"
        assert decoded["output_fingerprint"] == report.output_fingerprint
        assert "timing" in decoded  # operator layer rides along in as_dict
        assert "timing" not in report.deterministic_dict()
        assert "chaos-drift" in report.summary()


class TestCatalog:
    def test_catalog_names_and_lookup(self):
        names = scenario_names()
        assert "chaos-drift" in names
        assert "steady-diurnal" in names
        for name in names:
            assert get_scenario(name).name == name

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError, match="steady-diurnal"):
            get_scenario("no-such-scenario")

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="ticks"):
            ScenarioSpec(name="x", description="d", ticks=0)
        with pytest.raises(ValueError, match="fault_arm_ticks"):
            ScenarioSpec(name="x", description="d", fault_arm_ticks=(1,))
        with pytest.raises(ValueError, match="fault_arm_ticks"):
            ScenarioSpec(
                name="x",
                description="d",
                ticks=4,
                fault_plan="kill@1",
                fault_arm_ticks=(9,),
            )

    def test_scaled_overrides_without_mutating_catalog(self):
        base = get_scenario("gradual-drift")
        scaled = base.scaled(ticks=6, window_rows=128)
        assert (scaled.ticks, scaled.window_rows) == (6, 128)
        assert get_scenario("gradual-drift").ticks == base.ticks


def _stream(**overrides):
    kwargs = {
        "window_rows": 192,
        "seed": 11,
        "generator": GeneratorConfig(n_jobs=1200, seed=3),
    }
    kwargs.update(overrides)
    return WindowStream(**kwargs)


class TestWindowStream:
    def test_windows_replay_identically_and_differ_across_ticks(self):
        a, b = _stream(), _stream()
        assert table_fingerprint(a.window(4)) == table_fingerprint(b.window(4))
        assert table_fingerprint(a.window(4)) != table_fingerprint(a.window(5))

    def test_holdout_is_independent_of_the_live_window(self):
        stream = _stream()
        assert table_fingerprint(stream.window(3)) != table_fingerprint(
            stream.holdout_window(3)
        )
        assert stream.holdout_window(3, rows=64).n_rows == 64

    def test_mean_shift_phase_moves_the_column(self):
        phase = DriftPhase(column="workload", kind="mean_shift", magnitude=2.0, start=3)
        plain, drifted = _stream(), _stream(drift_phases=(phase,))
        tick = 6
        before = np.asarray(plain.window(tick)["workload"], dtype=np.float64)
        after = np.asarray(drifted.window(tick)["workload"], dtype=np.float64)
        assert after.mean() > before.mean() + 1.5 * before.std()
        # Before the phase starts the streams are byte-identical.
        assert table_fingerprint(plain.window(1)) == table_fingerprint(drifted.window(1))

    def test_degenerate_windows(self):
        stream = _stream(degenerate_ticks={2: "constant", 3: "tiny", 4: "single_category"})
        constant = stream.window(2)
        for name in constant.schema.numerical:
            assert np.unique(np.asarray(constant[name])).size == 1
        assert stream.window(3).n_rows == 8
        single = stream.window(4)
        for name in single.schema.categorical:
            assert np.unique(np.asarray(single[name]).astype(str)).size == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="window_rows"):
            _stream(window_rows=0)
        with pytest.raises(ValueError, match="degenerate"):
            _stream(degenerate_ticks={1: "explode"})
        with pytest.raises(ValueError, match="drift kind"):
            DriftPhase(column="workload", kind="teleport", magnitude=1.0, start=0)


class TestTrafficModel:
    def test_requests_are_deterministic_and_bounded(self):
        def build():
            return TrafficModel(
                seed=5, ticks=12, requests_per_tick=4, base_rows=256,
                min_rows=64, max_rows=512, n_tenants=3, n_users=24,
            )

        a, b = build(), build()
        tenants = {f"project{i:02d}" for i in range(3)}
        for tick in range(12):
            batch = a.requests(tick)
            assert batch == b.requests(tick)
            for request in batch:
                assert 64 <= request.rows <= 512
                assert request.tenant in tenants
        assert a.total_requests() == sum(len(a.requests(t)) for t in range(12))

    def test_validation(self):
        with pytest.raises(IndexError):
            TrafficModel(seed=1, ticks=2).requests(2)
        with pytest.raises(ValueError, match="min_rows"):
            TrafficModel(seed=1, ticks=2, min_rows=0)


#: The front-door proving ground at CI scale: prod + canary stages serving
#: concurrently behind the broker-routed FrontDoor, priorities/deadlines on.
MULTI_TENANT_SLO_SMALL = get_scenario("multi-tenant-slo").scaled(
    ticks=4,
    requests_per_tick=4,
    window_rows=256,
    train_rows=1024,
)


class TestMultiTenantSLOFrontDoor:
    @pytest.fixture(scope="class")
    def slo_reports(self):
        """The scaled multi-tenant-slo run twice at 2 workers and once at 1."""
        def run(workers):
            return ScenarioEngine(MULTI_TENANT_SLO_SMALL, seed=7, workers=workers).run()

        return run(2), run(2), run(1)

    def test_core_invariant_across_reruns_and_worker_counts(self, slo_reports):
        two_a, two_b, one = slo_reports
        assert two_a.deterministic_dict() == two_b.deterministic_dict()
        assert two_a.output_fingerprint
        # Worker count is recorded but must not leak into anything else:
        # autoscaling/routing may change wall clock, never bytes.
        core_two, core_one = two_a.deterministic_dict(), one.deterministic_dict()
        assert (core_two.pop("workers"), core_one.pop("workers")) == (2, 1)
        assert core_two == core_one

    def test_both_stages_serve_and_admission_rejects_nothing(self, slo_reports):
        report = slo_reports[0]
        assert set(report.requests_by_stage) == {"canary", "prod"}
        assert report.requests_by_stage["canary"] >= 1
        assert sum(report.requests_by_stage.values()) == report.requests_served
        assert report.requests_rejected == 0
        assert report.request_errors == 0
        assert report.requests_served == report.requests_submitted
        assert report.rows_served == report.rows_requested

    def test_front_door_stats_ride_along(self, slo_reports):
        report = slo_reports[0]
        assert set(report.service_stats["models"]) == {"prod", "canary"}
        assert "router" in report.service_stats
        # Every tenant that sent traffic has its latency percentiles recorded.
        assert set(report.tenant_latencies) == set(report.requests_by_tenant)
        assert sum(w["requests"] for w in report.tenant_latencies.values()) == (
            report.requests_served
        )


class TestMultiTenantBurstFairness:
    def test_no_tenant_p95_wait_exceeds_its_weight_fair_share(self):
        spec = get_scenario("multi-tenant-burst").scaled(
            ticks=6, window_rows=256, train_rows=1024
        )
        report = ScenarioEngine(spec, seed=13, workers=2).run()
        assert report.requests_rejected == 0
        assert report.tenant_latencies
        # All burst tenants ride the same (normal) class, so the weight-fair
        # share of each is the aggregate p95; 3x that (with a 50 ms floor
        # against timer granularity) is the starvation bound the weighted
        # fair queue must hold even while request sizes whipsaw.
        bound = 3.0 * max(report.p95_latency, 0.05)
        for tenant, latencies in sorted(report.tenant_latencies.items()):
            assert latencies["p95_latency_s"] <= bound, (
                f"{tenant} p95 latency {latencies['p95_latency_s']:.3f}s exceeds "
                f"the fair-share bound {bound:.3f}s"
            )


class TestSteadyScenarioStaysQuiet:
    def test_no_drift_no_faults_no_events(self):
        spec = get_scenario("steady-diurnal").scaled(
            ticks=6, window_rows=256, train_rows=1024, drift=DriftConfig()
        )
        report = ScenarioEngine(spec, seed=11, workers=2).run()
        assert report.drift_events == []
        assert report.retrains == 0
        assert report.request_errors == 0
        assert report.faults_armed == 0
        assert report.final_prod_version == report.initial_version
