"""Tests for the benchmark itself: seeded inputs, the correctness gate,
and the platform instances against the reference oracle.

    PYTHONPATH=src:. python -m pytest mpsocbench/tests -q
"""

import dataclasses

import pytest

from mpsocbench import inputs
from mpsocbench.metrics import describe, tail
from mpsocbench.spans import Spans
from mpsocbench.workloads import (CampaignsWorkload, CorrectnessError,
                                  ObservedWorkload, PlatformWorkload,
                                  Recorder, build_soc, soc_counts,
                                  state_digest)


def _recorder():
    return Recorder(Spans(enabled=False))


class TestSeededInputs:
    def test_platform_inputs_repeat_and_differ(self):
        first = inputs.platform_instances(3)
        again = inputs.platform_instances(3)
        other = inputs.platform_instances(4)
        assert first == again
        assert [p.programs for p in first] != [p.programs for p in other]
        assert [p.expected for p in first] != [p.expected for p in other]

    def test_observed_inputs_repeat_and_differ(self):
        assert inputs.observed_sessions(5) == inputs.observed_sessions(5)
        assert inputs.observed_sessions(5) != inputs.observed_sessions(6)

    def test_campaign_plans_repeat_and_differ(self):
        assert inputs.campaign_plan(7) == inputs.campaign_plan(7)
        assert inputs.campaign_plan(7) != inputs.campaign_plan(8)

    def test_platform_classes_span_the_input_properties(self):
        instances = inputs.platform_instances(9)
        cores = {p.n_cores for p in instances}
        assert min(cores) >= 2 and max(cores) <= 8 and len(cores) > 3
        assert any(p.irq_vector is not None for p in instances)
        assert any(inputs.CTRL_DMA_RES in p.expected for p in instances)
        assert any(len(set(p.programs.values())) < p.n_cores
                   for p in instances)

    def test_wrap32_matches_the_word_image(self):
        assert inputs.wrap32(2 ** 31) == -2 ** 31
        assert inputs.wrap32(-2 ** 31 - 1) == 2 ** 31 - 1
        assert inputs.wrap32(0xFFFFFFFF) == -1


class TestCorrectnessGate:
    def test_platform_round_passes_then_trips_on_a_wrong_word(self):
        workload = PlatformWorkload(11, _recorder())
        workload.instances = workload.instances[-2:]     # two short runs
        workload.run_round()
        platform = workload.instances[0]
        address, value = next(iter(platform.expected.items()))
        workload.instances[0] = dataclasses.replace(
            platform, expected={**platform.expected,
                                address: inputs.wrap32(value + 1)})
        with pytest.raises(CorrectnessError, match="result words"):
            workload.run_round()

    def test_observed_round_trips_on_a_wrong_final_digest(self):
        workload = ObservedWorkload(12, _recorder())
        workload.sessions = workload.sessions[:1]
        workload.run_round()
        name = workload.sessions[0].platform.name
        end_time, _ = workload.bare[name]
        workload.bare[name] = (end_time, "0" * 32)
        with pytest.raises(CorrectnessError, match="differs from the bare"):
            workload.run_round()

    def test_warm_replay_with_another_aggregate_trips(self):
        workload = CampaignsWorkload(13, _recorder())
        try:
            replay = next(op for op in workload.plan if op.replay_of)
            metrics = _FakeMetrics(executed=0, cached=replay.count)
            with pytest.raises(CorrectnessError, match="warm replay"):
                workload._check(replay, metrics, "feedbeef", 0,
                                {replay.replay_of: "cafe"})
            with pytest.raises(CorrectnessError, match="divergence"):
                workload._check(replay, metrics, "cafe", 1,
                                {replay.replay_of: "cafe"})
        finally:
            workload.close()


class _FakeCounter:
    def __init__(self, value):
        self.value = value


class _FakeMetrics:
    def __init__(self, executed, cached):
        self._values = {"farm.jobs.executed": executed,
                        "farm.jobs.cached": cached}

    def counter(self, name):
        return _FakeCounter(self._values[name])


class TestReferenceOracle:
    @pytest.mark.parametrize("index", [0, 6, 8, 11, 12, 13, 16])
    def test_sampled_platforms_match_reference_at_quantum_1(self, index):
        platform = inputs.platform_instances(21)[index]
        default = build_soc(platform)
        default.run()
        oracle = build_soc(platform, backend="reference", quantum=1)
        oracle.run()
        assert state_digest(default) == state_digest(oracle)
        exact = {k: v for k, v in soc_counts(default).items()
                 if k not in ("events",)}
        assert exact == {k: v for k, v in soc_counts(oracle).items()
                         if k not in ("events",)}
        for address, value in platform.expected.items():
            assert oracle.mem(address) == value


class TestStatistics:
    def test_tail_has_ten_samples_beyond(self):
        values = list(range(100))
        result = tail(values)
        assert sum(v > result["value"] for v in values) == 10
        assert result["n"] == 100 and result["pct"] == 89.0

    def test_describe_reports_median_and_iqr(self):
        stats = describe([1, 2, 3, 4, 5])
        assert stats["median"] == 3 and stats["iqr"] == stats["q3"] - stats["q1"]
