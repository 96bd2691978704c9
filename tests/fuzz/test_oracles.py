"""Oracles: clean programs pass, broken components are caught."""

from __future__ import annotations


from repro.fuzz.generator import ParamSpec, GeneratedProgram, generate_program
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    check_engine_pool_equivalence,
    prepare_case,
    run_oracles,
)
from repro.fuzz.workload import FuzzWorkload
from repro.sim import MachineConfig


def _program(source: str, seed: int = 0, **extra) -> GeneratedProgram:
    params = (
        ParamSpec("A", "f64*", count=96, fill="floats", fill_seed=13),
        ParamSpec("B", "f64*", count=96, fill="floats", fill_seed=17),
        ParamSpec("I", "i64*", count=96, fill="ints", fill_seed=19,
                  modulo=96),
        ParamSpec("R", "f64*", count=16, fill="floats", fill_seed=23),
        ParamSpec("n", "i64", value=6),
        ParamSpec("s", "f64", value=1.5),
    )
    return GeneratedProgram(seed=seed, source=source, params=params,
                            **extra)


HEADER = "task fuzz_task(A: f64*, B: f64*, I: i64*, R: f64*, n: i64, s: f64)"


class TestCleanPrograms:
    def test_generated_programs_pass_all_oracles(self):
        for seed in range(25):
            assert run_oracles(generate_program(seed)) == []

    def test_engine_pool_equivalence_on_batch(self):
        programs = [generate_program(seed) for seed in range(3)]
        assert check_engine_pool_equivalence(programs) == []

    def test_fptosi_nonfinite_is_defined(self):
        # Regression for the fuzzer-found interpreter crash: casting
        # inf/NaN to int must saturate/zero, not raise OverflowError.
        program = _program(HEADER + """ {
  var v0: f64 = (1.0 / (s - s));
  R[0] = (f64) ((i64) v0);
  R[1] = (f64) ((i64) (0.0 - v0));
  R[2] = (f64) ((i64) (v0 - v0));
}
""")
        assert run_oracles(program) == []


class TestBrokenComponentsAreCaught:
    def test_compile_failure_is_a_violation(self):
        program = _program(HEADER + " {\n  R[0] = nope;\n}\n")
        violations = run_oracles(program)
        assert [v.oracle for v in violations] == ["compile"]

    def test_interp_divergence_is_caught(self, monkeypatch):
        import repro.interp.decode as decode

        # Sabotage the fast core's fptosi only: the differential oracle
        # must notice the two interpreters disagreeing.
        monkeypatch.setitem(decode.CAST_FNS, "fptosi",
                            lambda v: int(v) + 1 if v == v else 0)
        program = _program(HEADER + """ {
  R[0] = (f64) ((i64) (s * 2.0));
}
""", seed=1)
        violations = run_oracles(program)
        assert any(v.oracle == "interp-equivalence" for v in violations)

    def test_impure_access_phase_is_caught(self):
        # Hand-build a case whose "access" function is the execute
        # function itself — it stores, so the pure-slice oracle fires.
        program = _program(HEADER + """ {
  var i0: i64 = 0;
  for (i0 = 0; i0 < 8; i0 = i0 + 1) {
    A[i0] = A[i0] + 1.0;
  }
}
""", seed=2)
        case = prepare_case(program)
        case.access = case.execute
        from repro.fuzz.oracles import _check_dae_semantics

        violations = _check_dae_semantics(case)
        assert violations
        assert "store" in violations[0].detail

    def test_machine_divergence_is_caught(self, monkeypatch):
        from repro.runtime.scheduler import DAEScheduler

        original = DAEScheduler.run

        def skewed(self, profiles, scheme, policy, record_timeline=None):
            result = original(self, profiles, scheme, policy,
                              record_timeline=record_timeline)
            # Skew only runs on a multi-type machine: the degenerate
            # machine the oracle compares against the plain config.
            if len(self.machine.core_types) > 1:
                result.energy_nj += 1.0
            return result

        monkeypatch.setattr(DAEScheduler, "run", skewed)
        violations = run_oracles(generate_program(0))
        assert any(v.oracle == "machine-invariance" for v in violations)

    def test_crash_inside_oracle_is_reported_not_raised(self, monkeypatch):
        import repro.fuzz.oracles as oracles

        def boom(case):
            raise RuntimeError("synthetic oracle crash")

        monkeypatch.setattr(oracles, "_check_interp_equivalence", boom)
        violations = oracles.run_oracles(generate_program(3))
        assert any(v.oracle == "crash:interp-equivalence"
                   for v in violations)
        assert any("synthetic oracle crash" in v.detail
                   for v in violations)


class TestWorkloadAdapter:
    def test_fuzz_workload_is_picklable(self):
        import pickle

        workload = FuzzWorkload(generate_program(0))
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.program == workload.program
        assert clone.name == workload.name

    def test_scale_is_ignored(self):
        workload = FuzzWorkload(generate_program(0))
        compiled = workload.compile()
        _, tasks1, _ = workload.instantiate(scale=1, compiled=compiled)
        _, tasks4, _ = workload.instantiate(scale=4, compiled=compiled)
        assert len(tasks1) == len(tasks4) == 1


def test_machine_invariance_oracle_is_registered_and_clean():
    from repro.fuzz.oracles import _check_machine_invariance

    assert "machine-invariance" in ORACLE_NAMES
    case = prepare_case(generate_program(0))
    assert _check_machine_invariance(case, MachineConfig()) == []


def test_oracle_names_cover_reported_oracles():
    for seed in range(5):
        for violation in run_oracles(generate_program(seed)):
            base = violation.oracle.split(":", 1)[-1]
            assert base in ORACLE_NAMES
