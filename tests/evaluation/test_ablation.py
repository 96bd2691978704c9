"""Trace-backed machine-config ablation sweeps (`repro.evaluation ablate`)."""

import json

import pytest

from repro.evaluation import (
    ABLATE_CONFIGS,
    SWEEP_PARAMS,
    ablate_workload,
    render_ablation_report,
)
from repro.sim import MachineConfig
from repro.sim.config import MachineConfigError
from repro.workloads import workload_by_name

from ..engine.tinywork import TinyWorkload


@pytest.fixture(scope="module")
def report():
    return ablate_workload(TinyWorkload(), "mem_ns", [40.0, 65.0, 120.0])


class TestAblateWorkload:
    def test_report_shape(self, report):
        assert report["workload"] == "tiny"
        assert report["param"] == "mem_ns"
        assert report["values"] == [40.0, 65.0, 120.0]
        assert len(report["rows"]) == 3
        labels = [label for label, _, _ in ABLATE_CONFIGS]
        for row in report["rows"]:
            assert sorted(row["configs"]) == sorted(labels)
            for entry in row["configs"].values():
                assert entry["summary"]["time_s"] > 0
                assert entry["relative"]["edp"] > 0

    def test_variants_resimulated_by_replay(self, report):
        assert report["replayed"] is True
        assert report["recorded_phases"] > 0
        assert report["recorded_events"] > 0

    def test_report_is_json_able(self, report):
        json.dumps(report)

    def test_slower_dram_never_speeds_up_cae(self, report):
        times = [
            row["configs"]["CAE (Max f.)"]["summary"]["time_s"]
            for row in report["rows"]
        ]
        assert times == sorted(times)

    def test_base_value_matches_direct_run(self, report):
        # The 65 ns row replays under a config equal to the default —
        # its schedule must match an ablation run that starts there.
        direct = ablate_workload(
            TinyWorkload(), "mem_ns", [65.0], config=MachineConfig()
        )
        base_row = next(r for r in report["rows"] if r["value"] == 65.0)
        assert base_row["configs"] == direct["rows"][0]["configs"]

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            ablate_workload(TinyWorkload(), "branch_predictor", [1])

    def test_cache_capacity_builder_scales_bytes(self):
        _, build = SWEEP_PARAMS["llc_kb"]
        variant = build(MachineConfig(), 8)
        assert variant.llc.size_bytes == 8 * 1024
        assert variant.llc.sets == 8       # derived geometry recomputed
        assert variant.l1 == MachineConfig().l1


class TestRenderAblationReport:
    def test_mentions_replay_and_all_values(self, report):
        text = render_ablation_report(report)
        assert "trace replay" in text
        assert "| mem_ns |" in text
        for value in (40, 65, 120):
            assert "| %g |" % value in text

    def test_fallback_wording(self, report):
        fallback = dict(report, replayed=False)
        text = render_ablation_report(fallback)
        assert "full re-interpretation" in text


class TestAblateValidation:
    """A value that breaks the machine fails as a typed error naming the
    cache level, before anything is profiled or replayed."""

    @pytest.fixture
    def no_profiling(self, monkeypatch):
        from repro.evaluation import ablation

        def refuse(*args, **kwargs):
            raise AssertionError("profiled before validating the variants")

        monkeypatch.setattr(ablation, "profile_workload", refuse)

    def test_l1_smaller_than_one_set(self, no_profiling):
        with pytest.raises(MachineConfigError, match="l1 has no sets"):
            ablate_workload(workload_by_name("cigar"), "l1_kb", [0.1])

    def test_negative_llc_capacity(self, no_profiling):
        with pytest.raises(MachineConfigError, match="llc geometry"):
            ablate_workload(workload_by_name("cigar"), "llc_kb", [24, -4])

    def test_cli_reports_bad_value(self, no_profiling, capsys):
        from repro.evaluation.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["ablate", "cigar", "--vary", "l1_kb", "--values", "0.1"])
        assert exit_info.value.code == 2
        assert "l1 has no sets" in capsys.readouterr().err
