"""MachineModel: registry, validation, placement and slot shape."""

import dataclasses

import pytest

from repro.machines import (
    BIGLITTLE_MIGRATION_NS,
    CoreType,
    MachineModel,
    Transition,
    biglittle_machine,
    dvfs,
    homogeneous_machine,
    ideal_machine,
    little_config,
    migrate,
    sandybridge_machine,
)
from repro.runtime.task import Scheme
from repro.sim.config import CacheConfig, MachineConfig, MachineConfigError


def two_type_machine(**overrides):
    """A valid biglittle-shaped machine to mutate into broken ones."""
    fields = dict(
        name="m",
        description="test machine",
        core_types=(
            CoreType(name="big", count=4, config=MachineConfig()),
            CoreType(name="little", count=4, config=little_config()),
        ),
        transition=migrate(2000.0),
        access_type="little",
        execute_type="big",
    )
    fields.update(overrides)
    return MachineModel(**fields)


class TestRegistry:
    def test_builtin_names_are_registered(self):
        names = MachineModel.registered_names()
        assert {"sandybridge", "biglittle", "ideal"} <= set(names)
        assert list(names) == sorted(names)

    def test_from_name_is_case_insensitive(self):
        assert MachineModel.from_name("SandyBridge").name == "sandybridge"
        assert MachineModel.from_name("BIGLITTLE").name == "biglittle"

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(KeyError, match="registered"):
            MachineModel.from_name("cray1")

    def test_register_overwrites_existing_name(self):
        from repro.machines.model import _MACHINE_REGISTRY

        try:
            MachineModel.register("tmp-test", sandybridge_machine)
            MachineModel.register("tmp-test", ideal_machine)
            assert MachineModel.from_name("tmp-test").name == "ideal"
        finally:
            _MACHINE_REGISTRY.pop("tmp-test", None)


class TestShape:
    def test_sandybridge_is_homogeneous_default(self):
        machine = sandybridge_machine()
        assert not machine.heterogeneous
        assert machine.config == MachineConfig()
        access, execute = machine.placement("dae")
        assert access.name == execute.name == "core"
        assert machine.slots("dae") == MachineConfig().cores

    def test_homogeneous_wrapper_autofills_placement(self):
        machine = homogeneous_machine("solo", MachineConfig())
        assert machine.access_type == machine.execute_type == "core"
        assert not machine.heterogeneous

    def test_biglittle_places_access_on_little(self):
        machine = biglittle_machine()
        assert machine.heterogeneous
        assert machine.config == MachineConfig()  # execute anchors
        for scheme in ("dae", "manual"):
            access, execute = machine.placement(scheme)
            assert (access.name, execute.name) == ("little", "big")
        access, execute = machine.placement("cae")
        assert (access.name, execute.name) == ("big", "big")

    def test_placement_accepts_scheme_members(self):
        machine = biglittle_machine()
        for scheme in Scheme:
            assert (machine.placement(scheme)
                    == machine.placement(scheme.value))
            assert machine.slots(scheme) == machine.slots(scheme.value)
        access, _ = machine.placement(Scheme.DAE)
        assert access.name == "little"

    def test_placement_override(self):
        machine = biglittle_machine()
        access, execute = machine.placement("dae", ("big", "big"))
        assert (access.name, execute.name) == ("big", "big")

    def test_slots_pair_the_smallest_placed_cluster(self):
        machine = biglittle_machine()
        assert machine.slots("dae") == 4
        assert machine.slots("cae") == 4
        wide_little = dataclasses.replace(little_config(), cores=8)
        lopsided = two_type_machine(core_types=(
            CoreType(name="big", count=4, config=MachineConfig()),
            CoreType(name="little", count=8, config=wide_little),
        )).validate()
        assert lopsided.slots("dae") == 4
        assert lopsided.slots("cae") == 4

    def test_equal_configs_collapse_to_homogeneous(self):
        config = MachineConfig()
        degenerate = two_type_machine(core_types=(
            CoreType(name="big", count=4, config=config),
            CoreType(name="little", count=4, config=config),
        )).validate()
        assert not degenerate.heterogeneous

    def test_type_named_unknown_raises(self):
        with pytest.raises(KeyError, match="no core type"):
            biglittle_machine().type_named("medium")


class TestValidation:
    def test_validate_returns_self(self):
        machine = two_type_machine()
        assert machine.validate() is machine

    def test_no_core_types(self):
        with pytest.raises(MachineConfigError, match="no core types"):
            two_type_machine(core_types=()).validate()

    def test_duplicate_type_names(self):
        with pytest.raises(MachineConfigError, match="twice"):
            two_type_machine(core_types=(
                CoreType(name="big", count=4, config=MachineConfig()),
                CoreType(name="big", count=4, config=MachineConfig()),
            )).validate()

    def test_cluster_count_must_be_positive(self):
        with pytest.raises(MachineConfigError, match="count >= 1"):
            two_type_machine(core_types=(
                CoreType(name="big", count=0, config=MachineConfig()),
                CoreType(name="little", count=4, config=little_config()),
            )).validate()

    def test_config_cores_must_match_cluster_count(self):
        with pytest.raises(MachineConfigError, match="config.cores"):
            two_type_machine(core_types=(
                CoreType(name="big", count=2, config=MachineConfig()),
                CoreType(name="little", count=4, config=little_config()),
            )).validate()

    def test_invalid_nested_config_surfaces(self):
        bad = dataclasses.replace(MachineConfig(), issue_width=0)
        with pytest.raises(MachineConfigError, match="issue_width"):
            two_type_machine(core_types=(
                CoreType(name="big", count=4, config=bad),
                CoreType(name="little", count=4, config=little_config()),
            )).validate()

    def test_unknown_placement_type(self):
        with pytest.raises(MachineConfigError, match="unknown core type"):
            two_type_machine(access_type="medium").validate()

    def test_unknown_transition_kind(self):
        bad = Transition(kind="teleport", latency_ns=0.0)
        with pytest.raises(MachineConfigError, match="transition kind"):
            two_type_machine(transition=bad).validate()

    def test_negative_transition_latency(self):
        with pytest.raises(MachineConfigError, match=">= 0"):
            two_type_machine(transition=migrate(-1.0)).validate()

    def test_dvfs_cannot_span_distinct_types(self):
        with pytest.raises(MachineConfigError, match="must migrate"):
            two_type_machine(transition=dvfs(500.0)).validate()

    def test_dvfs_latency_must_match_the_config(self):
        with pytest.raises(MachineConfigError, match="disagrees"):
            MachineModel(
                name="m",
                description="latency mismatch",
                core_types=(
                    CoreType(name="core", count=4, config=MachineConfig()),
                ),
                transition=dvfs(100.0),
                access_type="core",
                execute_type="core",
            ).validate()

    def test_placed_types_must_share_the_llc(self):
        split_llc = dataclasses.replace(
            little_config(),
            llc=CacheConfig(48 * 1024, 16, latency_cycles=30),
        )
        with pytest.raises(MachineConfigError, match="share one LLC"):
            two_type_machine(core_types=(
                CoreType(name="big", count=4, config=MachineConfig()),
                CoreType(name="little", count=4, config=split_llc),
            )).validate()


class TestCatalog:
    def test_biglittle_migrates_with_flush(self):
        machine = biglittle_machine()
        assert machine.transition.kind == "migrate"
        assert machine.transition.latency_ns == BIGLITTLE_MIGRATION_NS
        assert machine.transition.flush is True

    def test_little_cluster_shares_the_default_llc(self):
        assert little_config().llc == MachineConfig().llc

    def test_little_table_sits_below_the_big_table(self):
        little = little_config()
        assert little.fmax.freq_ghz < MachineConfig().fmin.freq_ghz
        assert little.fmax.freq_ghz == 1.4

    def test_ideal_machine_has_free_transitions(self):
        machine = ideal_machine()
        assert machine.transition.latency_ns == 0.0
        assert machine.config.dvfs_transition_ns == 0.0
        assert not machine.heterogeneous
