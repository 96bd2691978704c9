"""Tuning on a machine model: homogeneous pass-through and the
heterogeneous placement × per-type point search."""

import hashlib
import json

import pytest

from repro.machines import little_config
from repro.runtime.task import Scheme
from repro.sim import MachineConfig
from repro.tuning import tune_workload

from ..engine.tinywork import TinyWorkload

BIG_FREQS = sorted(p.freq_ghz for p in MachineConfig().operating_points)
LITTLE_FREQS = sorted(
    p.freq_ghz for p in little_config().operating_points)


@pytest.fixture(scope="module")
def biglittle_result():
    return tune_workload(
        TinyWorkload(), machine="biglittle", cache=False, install=False,
    )


class TestHomogeneousMachine:
    def test_sandybridge_matches_machine_less_tuning(self):
        plain = tune_workload(TinyWorkload(), cache=False, install=False)
        machined = tune_workload(
            TinyWorkload(), machine="sandybridge", cache=False,
            install=False,
        )
        assert machined.machine == "sandybridge"
        assert machined.placement is None
        assert machined.best.label == plain.best.label
        assert machined.best.value == plain.best.value

    def test_machine_and_config_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            tune_workload(
                TinyWorkload(), config=MachineConfig(),
                machine="sandybridge", install=False,
            )


class TestBigLittleTuning:
    def test_result_records_machine_and_placement(self, biglittle_result):
        result = biglittle_result
        assert result.machine == "biglittle"
        assert set(result.placement) == {"access", "execute"}
        assert result.placement["access"] in ("big", "little")
        assert result.placement["execute"] in ("big", "little")

    def test_placement_search_covers_every_pairing(self, biglittle_result):
        labels = [c.label for c in biglittle_result.candidates]
        prefixes = {label.split(" ", 1)[0] for label in labels}
        assert prefixes == {"little->big", "big->big", "little->little"}
        # Exhaustive per-placement sweeps over the placed tables.
        n_big, n_little = len(BIG_FREQS), len(LITTLE_FREQS)
        assert labels and len(labels) == (
            n_little * n_big + n_big * n_big + n_little * n_little
        )
        strategy_names = {s.name for s in biglittle_result.strategies}
        assert {
            "placement:little->big",
            "placement:big->big",
            "placement:little->little",
        } <= strategy_names

    def test_winner_is_the_global_best(self, biglittle_result):
        feasible = [
            c.value for c in biglittle_result.candidates
            if c.value != float("inf")
        ]
        assert biglittle_result.best.value == min(feasible)

    def test_as_dict_carries_machine_fields(self, biglittle_result):
        doc = biglittle_result.as_dict()
        assert doc["machine"] == "biglittle"
        assert doc["placement"] == biglittle_result.placement
        entry = biglittle_result.manifest_entry()
        assert entry["tuning"]["machine"] == "biglittle"
        assert entry["tuning"]["placement"] == biglittle_result.placement

    def test_unknown_machine_name_raises(self):
        with pytest.raises(KeyError, match="registered"):
            tune_workload(
                TinyWorkload(), machine="cray1", install=False,
            )

    def test_unknown_strategy_raises_on_a_heterogeneous_machine(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            tune_workload(
                TinyWorkload(), machine="biglittle",
                strategy="no-such-strategy", cache=False, install=False,
            )

    def test_candidates_fan_out_through_the_pool(self, biglittle_result):
        pooled = tune_workload(
            TinyWorkload(), machine="biglittle", cache=False,
            install=False, jobs=2,
        )
        assert [c.as_dict() for c in pooled.candidates] == [
            c.as_dict() for c in biglittle_result.candidates
        ]
        assert pooled.best.as_dict() == biglittle_result.best.as_dict()
        assert pooled.placement == biglittle_result.placement
        assert pooled.stats.pool_evals > 0
        assert (pooled.stats.schedule_evals
                == biglittle_result.stats.schedule_evals)

    def test_schedule_evals_count_candidates_only(self, biglittle_result):
        stats = biglittle_result.stats
        assert stats.schedule_evals == stats.requests == len(
            biglittle_result.candidates)


class TestOneTuningLoop:
    """Every placement runs the selected strategies through one
    candidate cache, and placements are deduplicated on the core types
    they resolve to."""

    def test_coupled_scheme_tunes_each_resolved_placement_once(self):
        result = tune_workload(
            TinyWorkload(), machine="biglittle", scheme=Scheme.CAE,
            cache=False, install=False,
        )
        keys = [c.pair.key for c in result.candidates]
        assert len(keys) == len(BIG_FREQS) ** 2 + len(LITTLE_FREQS) ** 2
        assert len(set(keys)) == len(keys)
        # A coupled scheme runs both phases on the execute type, so the
        # labels name the types the phases actually run on.
        for candidate in result.candidates:
            prefix = candidate.label.split(" ", 1)[0]
            access, execute = candidate.pair.key
            if execute in BIG_FREQS:
                assert prefix == "big->big" and access in BIG_FREQS
            else:
                assert prefix == "little->little"
                assert access in LITTLE_FREQS
        assert result.placement["access"] == result.placement["execute"]
        assert result.stats.schedule_evals == result.stats.requests

    def test_descent_runs_on_every_placement(self):
        result = tune_workload(
            TinyWorkload(), machine="biglittle", strategy="descent",
            cache=False, install=False,
        )
        names = [s.name for s in result.strategies]
        assert names[:2] == ["phase-local", "descent"]
        assert {
            "placement:little->big",
            "placement:big->big",
            "placement:little->little",
        } <= set(names)
        full_grids = (len(LITTLE_FREQS) * len(BIG_FREQS)
                      + len(BIG_FREQS) ** 2 + len(LITTLE_FREQS) ** 2)
        assert result.stats.schedule_evals < full_grids
        # Each coordinate scans the table of the type its phase is on.
        tables = {"big": BIG_FREQS, "little": LITTLE_FREQS}
        for candidate in result.candidates:
            access_type, execute_type = (
                candidate.label.split(" ", 1)[0].split("->"))
            assert candidate.pair.key[0] in tables[access_type]
            assert candidate.pair.key[1] in tables[execute_type]

    def test_warm_rerun_schedules_nothing(self, tmp_path):
        kwargs = dict(machine="biglittle", cache_dir=str(tmp_path),
                      install=False)
        cold = tune_workload(TinyWorkload(), **kwargs)
        warm = tune_workload(TinyWorkload(), **kwargs)
        assert warm.stats.requests == cold.stats.requests > 0
        assert warm.stats.schedule_evals == 0
        assert warm.stats.cache_hits == warm.stats.requests
        assert warm.as_dict() == cold.as_dict()


#: sha256 of ``json.dumps(as_dict(), sort_keys=True)`` for one-type
#: tunes of TinyWorkload, recorded before the one tuning loop replaced
#: the per-machine forks: one-type reports must stay byte-identical.
ONE_TYPE_PINS = {
    ("plain", "all"):
        "5b2dfea9f1d81cf58197d7241fe8f0007372c161b2c917fcee4d55f9d096e15d",
    ("plain", "exhaustive"):
        "1929061f4bc2ef5239f769af4b7fc56e4271da66dc051eb4880104b39347ec38",
    ("plain", "golden"):
        "32891b28b82b1185a93ed6292e815c37bef09ad5a113ccaf64312be6fe67d971",
    ("plain", "descent"):
        "b7b6406a9be2fd4ce43152efff9490aca5f0b0cc89a58ee5162f9e321e4050e5",
    ("sandybridge", "all"):
        "62bc58a369c28d6ac93ab27dd8e87f45921978821dc7c6bd3a5ea7c0796c14a8",
    ("sandybridge", "exhaustive"):
        "4009655efb434b3727431bcc98547bfad2a02495a72466bfa82d5f6229db9be5",
    ("sandybridge", "golden"):
        "14cf7c9510dfa02f9c4ce7b6e9add39698bef36a33e81d460d954fb52920a5c3",
    ("sandybridge", "descent"):
        "ba4a73a8a895559075a526ad0a682e39eef1e6ea65e6f93902a05d1cb8f8609d",
    ("ideal", "all"):
        "a9e139f1635d4fd750f3e8b9a779027756482dd1342418a3fbf0e99a2e653edf",
    ("ideal", "exhaustive"):
        "a68ccdfba370a18bec6a30ea4e30f4a6ff8b0ff02a79e71f2247dc48a898f631",
    ("ideal", "golden"):
        "1d889a6e19cef24b7532373515ef47ac5cb2f85e83711b26ae1717612d6babc1",
    ("ideal", "descent"):
        "c721f9dc547eb366d7584397b318e68e6287de0b0b358783188780a27993a68f",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("machine, strategy", sorted(ONE_TYPE_PINS))
def test_one_type_report_parity(machine, strategy, jobs):
    target = ({"config": MachineConfig()} if machine == "plain"
              else {"machine": machine})
    result = tune_workload(
        TinyWorkload(), strategy=strategy, jobs=jobs, cache=False,
        install=False, **target,
    )
    doc = json.dumps(result.as_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() \
        == ONE_TYPE_PINS[(machine, strategy)]
