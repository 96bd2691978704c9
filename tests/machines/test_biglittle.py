"""big.LITTLE DAE end-to-end: every paper workload profiles and
schedules on the migration-based machine with access phases on the
LITTLE cluster and audited migration charges."""

import dataclasses

import pytest

from repro.engine.products import profile_workload
from repro.machines import (
    BIGLITTLE_MIGRATION_NS,
    biglittle_machine,
    little_config,
    migrate,
)
from repro.power.frequency import FrequencyPolicy
from repro.runtime import DAEScheduler, TaskProfile
from repro.runtime.task import Scheme, TaskInstance, TaskKind
from repro.sim import AccessCounts, MachineConfig, PhaseProfile
from repro.workloads import ALL_WORKLOADS

from ..engine.tinywork import TinyWorkload

LITTLE_FMAX = little_config().fmax.freq_ghz
BIG_FREQS = {p.freq_ghz for p in MachineConfig().operating_points}
LITTLE_FREQS = {p.freq_ghz for p in little_config().operating_points}


@pytest.mark.parametrize(
    "workload_cls", ALL_WORKLOADS, ids=[w.name for w in ALL_WORKLOADS],
)
def test_dae_completes_on_every_workload(workload_cls):
    machine = biglittle_machine()
    run = profile_workload(
        workload_cls(), 1, machine=machine, schemes=(Scheme.DAE,),
    )
    policy = FrequencyPolicy.from_name("optimal", machine.config)
    result = DAEScheduler(machine=machine).run(
        run.profiles["dae"].tasks, "dae", policy, record_timeline=True,
    )

    assert result.tasks_run == run.task_count
    assert result.machine == "biglittle"
    assert result.placement == {"access": "little", "execute": "big"}
    assert result.migrations > 0
    assert result.transition_nj > 0.0

    # The roll-ups stay exact with migration charges in the mix.
    result.timeline.validate(result.time_ns)
    result.timeline.validate_energy(result.energy_nj)

    segments = [
        segment
        for core_segments in result.timeline.per_core().values()
        for segment in core_segments
    ]
    access = [s for s in segments if s.kind == "access"]
    assert access, "DAE run recorded no access segments"
    # Every access phase runs on a real table point of one of the two
    # clusters; at least one lands on the LITTLE table (the cold slot
    # places the first access phase there unconditionally).
    for segment in access:
        assert segment.freq_ghz in BIG_FREQS | LITTLE_FREQS
    assert any(s.freq_ghz <= LITTLE_FMAX + 1e-9 for s in access)
    # Cluster crossings surface as switch segments.
    assert any(s.kind == "switch" for s in segments)


def test_migration_summary_keys_are_present():
    machine = biglittle_machine()
    run = profile_workload(
        ALL_WORKLOADS[0](), 1, machine=machine, schemes=(Scheme.DAE,),
    )
    policy = FrequencyPolicy.from_name("optimal", machine.config)
    result = DAEScheduler(machine=machine).run(
        run.profiles["dae"].tasks, "dae", policy,
    )
    summary = result.summary()
    assert summary["machine"] == "biglittle"
    assert summary["migrations"] == result.migrations > 0
    assert summary["placement"] == {"access": "little", "execute": "big"}


# -- bit-for-bit schedule pins ------------------------------------------------
#
# ``float.hex`` of every float in ``ScheduleResult.summary()`` (time,
# energy, EDP, transition energy, the six buckets) plus the steal,
# transition and migration counts.  ``migrations`` is ``None`` where the
# placed types collapse to one (big->big, little->little): the summary
# then carries no machine annotations at all.  The synthetic stream adds
# steals, DVFS ramps on one type, and access phases short enough to trip
# both break-even guards.

PIN_POLICIES = ("minmax", "optimal", "fixed@1.0")
PIN_PLACEMENTS = (("little", "big"), ("big", "big"), ("little", "little"))


def _phase(slots, pf_mem=0, mem=0):
    counts = AccessCounts()
    counts.loads["mem"] = mem
    counts.prefetches["mem"] = pf_mem
    return PhaseProfile(instructions=slots, slots=slots, counts=counts)


def _synthetic_tasks():
    kind = TaskKind(name="k", execute=None)
    return [
        TaskProfile(
            instance=TaskInstance(kind, []),
            execute=_phase(20_000 + 7_000 * (i % 3), mem=40),
            access=(None if i % 5 == 4 else
                    _phase(200 + 3_000 * (i % 4), pf_mem=20 * (i % 4))),
        )
        for i in range(11)
    ]


def _pin_policy(name, machine):
    # fixed@1.0 lies on the LITTLE table only: the big cluster clamps it.
    config = little_config() if name.startswith("fixed") else machine.config
    return FrequencyPolicy.from_name(name, config)


def _fingerprint(summary):
    buckets = summary["buckets"]
    floats = (
        summary["time_s"], summary["energy_j"], summary["edp_js"],
        summary["transition_j"],
        buckets["prefetch_s"], buckets["task_s"], buckets["osi_s"],
        buckets["prefetch_j"], buckets["task_j"], buckets["osi_j"],
    )
    return tuple(f.hex() for f in floats) + (
        summary["steals"], summary["transitions"],
        summary.get("migrations"),
    )


PINS = {
    ('tiny', 'minmax', 'little->big'): (
        '0x1.199b34dec49f4p-19', '0x1.27d5c22eb167ep-17',
        '0x1.456cfdaaad080p-36', '0x1.f3f60681fa40bp-18',
        '0x1.35d9e908bc79ap-24', '0x1.7af7bb5b58b9bp-25',
        '0x1.15b4895157cd9p-17', '0x1.867d51d3c4f2ep-24',
        '0x1.29f8633fd79dap-21', '0x1.122941570c642p-17',
        0, 0, 2),
    ('tiny', 'minmax', 'big->big'): (
        '0x1.5a4de6550ee24p-24', '0x1.1390f05b69c46p-20',
        '0x1.74c5bf639f89ap-44', '0x0.0p+0',
        '0x1.bea3f83df1b64p-26', '0x1.7af7bb5b58b9bp-25',
        '0x1.0f04af65c4afap-22', '0x1.7ca18c14c07c5p-22',
        '0x1.29f8633fd79dap-21', '0x1.f6c5bb64dd688p-24',
        0, 0, None),
    ('tiny', 'minmax', 'little->little'): (
        '0x1.490671c067d24p-23', '0x1.6279768aad93fp-22',
        '0x1.c79705b308815p-45', '0x0.0p+0',
        '0x1.35d9e908bc79ap-24', '0x1.4b5377eaed05ep-23',
        '0x1.9eecad492a032p-22', '0x1.867d51d3c4f2ep-24',
        '0x1.7dce1b6c9fe87p-23', '0x1.07cc517db18c2p-24',
        0, 0, None),
    ('tiny', 'optimal', 'little->big'): (
        '0x1.199b34dec49f4p-19', '0x1.27d5c22eb167ep-17',
        '0x1.456cfdaaad080p-36', '0x1.f3f60681fa40bp-18',
        '0x1.35d9e908bc79ap-24', '0x1.7af7bb5b58b9bp-25',
        '0x1.15b4895157cd9p-17', '0x1.867d51d3c4f2ep-24',
        '0x1.29f8633fd79dap-21', '0x1.122941570c642p-17',
        0, 0, 2),
    ('tiny', 'optimal', 'big->big'): (
        '0x1.5a4de6550ee24p-24', '0x1.1390f05b69c46p-20',
        '0x1.74c5bf639f89ap-44', '0x0.0p+0',
        '0x1.bea3f83df1b64p-26', '0x1.7af7bb5b58b9bp-25',
        '0x1.0f04af65c4afap-22', '0x1.7ca18c14c07c5p-22',
        '0x1.29f8633fd79dap-21', '0x1.f6c5bb64dd688p-24',
        0, 0, None),
    ('tiny', 'optimal', 'little->little'): (
        '0x1.490671c067d24p-23', '0x1.6279768aad93fp-22',
        '0x1.c79705b308815p-45', '0x0.0p+0',
        '0x1.35d9e908bc79ap-24', '0x1.4b5377eaed05ep-23',
        '0x1.9eecad492a032p-22', '0x1.867d51d3c4f2ep-24',
        '0x1.7dce1b6c9fe87p-23', '0x1.07cc517db18c2p-24',
        0, 0, None),
    ('tiny', 'fixed@1.0', 'little->big'): (
        '0x1.1edfa552c687ap-19', '0x1.7e856f12a8302p-18',
        '0x1.aca73f5a4920cp-37', '0x1.3204341733ce5p-18',
        '0x1.b1caaca5d4aa3p-24', '0x1.92a737110e454p-24',
        '0x1.1856c18b58c1cp-17', '0x1.6087ea16a2149p-24',
        '0x1.5d85b1594a254p-22', '0x1.632af454b9057p-18',
        0, 0, 2),
    ('tiny', 'fixed@1.0', 'big->big'): (
        '0x1.2d2f40bde8e1ep-23', '0x1.a2d85fba9427dp-21',
        '0x1.ecc5b834c2270p-44', '0x0.0p+0',
        '0x1.b1caaca5d4aa3p-25', '0x1.421f5f40d8377p-23',
        '0x1.83157c46ab12dp-22', '0x1.911325033f2eap-23',
        '0x1.ee0cd2922ecf4p-22', '0x1.1e34b4c2b3d20p-23',
        0, 0, None),
    ('tiny', 'fixed@1.0', 'little->little'): (
        '0x1.aa46877043ac5p-23', '0x1.566137fb1fde1p-22',
        '0x1.1d0e0d704da10p-44', '0x0.0p+0',
        '0x1.b1caaca5d4aa3p-24', '0x1.cfdb417c18a1bp-23',
        '0x1.0016617c82eeap-21', '0x1.6087ea16a2149p-24',
        '0x1.5b6b7eddba5dap-23', '0x1.4225f81a68a8ap-24',
        0, 0, None),
    ('tiny-noflush', 'minmax', 'declared'): (
        '0x1.199b34dec49f4p-19', '0x1.27d5c22eb167ep-17',
        '0x1.456cfdaaad080p-36', '0x1.f3f60681fa40bp-18',
        '0x1.35d9e908bc79ap-24', '0x1.7af7bb5b58b9bp-25',
        '0x1.15b4895157cd9p-17', '0x1.867d51d3c4f2ep-24',
        '0x1.29f8633fd79dap-21', '0x1.122941570c642p-17',
        0, 0, 2),
    ('tiny-noflush', 'optimal', 'declared'): (
        '0x1.199b34dec49f4p-19', '0x1.27d5c22eb167ep-17',
        '0x1.456cfdaaad080p-36', '0x1.f3f60681fa40bp-18',
        '0x1.35d9e908bc79ap-24', '0x1.7af7bb5b58b9bp-25',
        '0x1.15b4895157cd9p-17', '0x1.867d51d3c4f2ep-24',
        '0x1.29f8633fd79dap-21', '0x1.122941570c642p-17',
        0, 0, 2),
    ('tiny-noflush', 'fixed@1.0', 'declared'): (
        '0x1.1edfa552c687ap-19', '0x1.7e856f12a8302p-18',
        '0x1.aca73f5a4920cp-37', '0x1.3204341733ce5p-18',
        '0x1.b1caaca5d4aa3p-24', '0x1.92a737110e454p-24',
        '0x1.1856c18b58c1cp-17', '0x1.6087ea16a2149p-24',
        '0x1.5d85b1594a254p-22', '0x1.632af454b9057p-18',
        0, 0, 2),
    ('synthetic', 'minmax', 'little->big'): (
        '0x1.b2af3be9e2aefp-16', '0x1.bd52fe881f73bp-12',
        '0x1.7a13c3bbdff32p-27', '0x1.138a12c1625b6p-15',
        '0x1.303fd3691a0fap-15', '0x1.c5b7130b59b4ap-16',
        '0x1.503fb57fc9e6dp-15', '0x1.1aeaa1b9b708dp-16',
        '0x1.8627373cc36b1p-12', '0x1.2be8e97e04c03p-15',
        2, 2, 12),
    ('synthetic', 'minmax', 'big->big'): (
        '0x1.6a5d115480304p-17', '0x1.adb664b5eb5aap-12',
        '0x1.30201161644d0p-28', '0x1.273cafdeaa6fep-17',
        '0x1.c90e47366b41fp-18', '0x1.c5b7130b59b4ap-16',
        '0x1.397efba017b6fp-17', '0x1.c48dc15a166e1p-16',
        '0x1.8627373cc36b1p-12', '0x1.68ca2c70d114ap-17',
        0, 11, None),
    ('synthetic', 'minmax', 'little->little'): (
        '0x1.966a83d142c70p-15', '0x1.575c885f55100p-13',
        '0x1.108dceb25722cp-27', '0x1.6866c4fbb5272p-20',
        '0x1.30961bd05492bp-15', '0x1.ee637b92ffa7cp-14',
        '0x1.4c4cfc4eb739dp-15', '0x1.1a4ee4a601825p-16',
        '0x1.24c3a4b0f37c0p-13', '0x1.e9e0e3342c778p-18',
        0, 11, None),
    ('synthetic', 'optimal', 'little->big'): (
        '0x1.8f8165bdff27ap-16', '0x1.37f7d513ff3b9p-12',
        '0x1.e6d8f4f8d9dadp-28', '0x1.a55516a9a04c5p-16',
        '0x1.ed0e2fab07242p-17', '0x1.3b5ea5d2b7f35p-15',
        '0x1.675ee70bea4c3p-15', '0x1.5d46e6f6f4249p-16',
        '0x1.041678024af0fp-12', '0x1.e0ceea2450856p-16',
        1, 6, 10),
    ('synthetic', 'optimal', 'big->big'): (
        '0x1.9c053d0f0d728p-17', '0x1.324527576f3ebp-12',
        '0x1.eced8fb6f841bp-29', '0x1.1a0ff1d27451dp-18',
        '0x1.124eb71d381f4p-18', '0x1.3b5ea5d2b7f35p-15',
        '0x1.e2cad79bcf70fp-18', '0x1.4233b214cc011p-15',
        '0x1.041678024af0fp-12', '0x1.7a0e44a2b3659p-18',
        2, 6, None),
    ('synthetic', 'optimal', 'little->little'): (
        '0x1.4c1df2098acf9p-15', '0x1.54287f34d1af0p-13',
        '0x1.b94c4f29df08cp-28', '0x0.0p+0',
        '0x1.06718f51f94d2p-16', '0x1.ee637b92ffa7cp-14',
        '0x1.9eecad492a032p-16', '0x1.3c37e18ceef82p-16',
        '0x1.24c3a4b0f37c0p-13', '0x1.f777949014feap-19',
        1, 0, None),
    ('synthetic', 'fixed@1.0', 'little->big'): (
        '0x1.dd959cdfca2a9p-16', '0x1.e9fcf8d06ad78p-13',
        '0x1.c90d5c0dd3284p-28', '0x1.22eabba029abbp-16',
        '0x1.5bd00a6eeecb3p-16', '0x1.ac1775927e476p-15',
        '0x1.602a0c4304619p-15', '0x1.2b3aff1fff50ap-16',
        '0x1.98643b10119ccp-13', '0x1.618aeee2ca85ep-16',
        1, 0, 10),
    ('synthetic', 'fixed@1.0', 'big->big'): (
        '0x1.bdf03b10f81ffp-16', '0x1.41217c5f48a64p-12',
        '0x1.17b247571dcfbp-27', '0x0.0p+0',
        '0x1.6f6bc8a5f69f3p-17', '0x1.481415e193ae5p-14',
        '0x1.1db74b0561e9bp-16', '0x1.3ce6904257e95p-15',
        '0x1.1668c7f696784p-12', '0x1.8df13033986bap-19',
        1, 0, None),
    ('synthetic', 'fixed@1.0', 'little->little'): (
        '0x1.c37991e748a41p-15', '0x1.302604dd31ffcp-13',
        '0x1.0c31b4f1267fcp-27', '0x0.0p+0',
        '0x1.6f6bc8a5f69f3p-16', '0x1.4e138949c03d8p-13',
        '0x1.1ce08b708c043p-15', '0x1.1e96a1a02be29p-16',
        '0x1.0194a205704ecp-13', '0x1.57d1d47786942p-18',
        1, 0, None),
}


@pytest.fixture(scope="module")
def pin_streams():
    machine = biglittle_machine()
    no_flush = dataclasses.replace(
        machine, transition=migrate(BIGLITTLE_MIGRATION_NS, flush=False),
    )

    def tiny(m):
        return profile_workload(
            TinyWorkload(), 1, machine=m, schemes=(Scheme.DAE,),
        ).profiles["dae"].tasks

    return {
        "tiny": (machine, tiny(machine), PIN_PLACEMENTS),
        "tiny-noflush": (no_flush, tiny(no_flush), (None,)),
        "synthetic": (machine, _synthetic_tasks(), PIN_PLACEMENTS),
    }


def test_schedule_pins_cover_every_case(pin_streams):
    expected = {
        (label, policy, "%s->%s" % placed if placed else "declared")
        for label, (_, _, placements) in pin_streams.items()
        for policy in PIN_POLICIES
        for placed in placements
    }
    assert set(PINS) == expected


@pytest.mark.parametrize("case", sorted(PINS), ids="/".join)
def test_schedule_is_pinned_bit_for_bit(pin_streams, case):
    label, policy_name, placed_label = case
    machine, tasks, _ = pin_streams[label]
    placed = (None if placed_label == "declared"
              else tuple(placed_label.split("->")))
    result = DAEScheduler(machine=machine, placement=placed).run(
        tasks, Scheme.DAE, _pin_policy(policy_name, machine),
        record_timeline=False,
    )
    summary = result.summary()
    assert _fingerprint(summary) == PINS[case]
    access, execute = placed or ("little", "big")
    if access == execute:
        assert "placement" not in summary
    else:
        assert summary["placement"] == {"access": access, "execute": execute}
