"""The differential oracle stack: what passes, and what must not."""

import dataclasses

import pytest

from repro.fuzz.generator import GeneratorConfig, generate_case
from repro.fuzz.oracles import OracleConfig, run_oracles

SEED = 7070


@pytest.mark.parametrize("index", range(10))
def test_generated_cases_pass_every_oracle(index):
    case = generate_case(SEED, index, inject="mixed")
    report = run_oracles(case)
    assert report.ok, [failure.to_dict() for failure in report.failures]
    if case.is_bad:
        assert report.verdict in ("undefined", "static-error")
        assert report.detected_kind is not None
    else:
        assert report.verdict == "defined"


def test_search_oracle_agrees_on_generated_cases():
    config = OracleConfig(check_search=True, search_max_paths=8)
    for index in range(3):
        case = generate_case(SEED, index, inject="mixed")
        report = run_oracles(case, oracle_config=config)
        assert report.ok, [failure.to_dict() for failure in report.failures]


def test_wrong_stdout_prediction_fails_ground_truth():
    case = generate_case(SEED, 1, config=GeneratorConfig(sabotage="wrong-stdout"),
                         inject=None)
    report = run_oracles(case)
    assert not report.ok
    assert report.failures[0].oracle == "ground-truth"
    assert report.failures[0].signature == "clean-stdout-drift"


def test_mislabeled_defect_fails_ground_truth():
    case = generate_case(SEED, 0, config=GeneratorConfig(sabotage="mislabel"),
                         inject=None)
    report = run_oracles(case)
    assert not report.ok
    assert report.failures[0].oracle == "ground-truth"
    assert report.failures[0].signature.startswith("clean-flagged:")


def test_wrong_expected_kind_fails_ground_truth():
    case = generate_case(SEED, 2, inject="division-by-zero")
    from repro.errors import UBKind

    wrong = dataclasses.replace(case, expected_kinds=(UBKind.SIGNED_OVERFLOW,))
    report = run_oracles(wrong)
    assert any(failure.signature.startswith("wrong-kind:")
               for failure in report.failures)


def test_unparseable_program_is_a_generator_failure():
    case = generate_case(SEED, 0, inject=None)
    broken = dataclasses.replace(case, source="int main(void) { return 0")
    report = run_oracles(broken)
    assert report.failures[0].oracle == "generator-wellformed"
    assert report.failures[0].signature == "parse-error"


def test_oracles_can_be_selectively_disabled():
    case = generate_case(SEED, 3, inject="memory")
    config = OracleConfig(check_observed=False, check_ablation=False)
    report = run_oracles(case, oracle_config=config)
    assert report.ok


def test_oracle_config_round_trips():
    config = OracleConfig(check_search=True, search_max_paths=4)
    assert OracleConfig.from_dict(config.to_dict()) == config


# ---------------------------------------------------------------------------
# The symbolic-differential oracle
# ---------------------------------------------------------------------------

def test_symbolic_oracle_passes_on_hole_cases():
    from repro.fuzz.generator import DOMAIN, GeneratorConfig, generate_case

    config = GeneratorConfig(symbolic_hole=DOMAIN - 1)
    oracle_config = OracleConfig(check_symbolic=True)
    for index in range(4):
        case = generate_case(99, index, config=config, inject="mixed")
        report = run_oracles(case, oracle_config=oracle_config)
        assert report.ok, [failure.detail for failure in report.failures]


def test_symbolic_oracle_skips_cases_without_a_hole():
    from repro.fuzz.generator import generate_case

    case = generate_case(99, 0, inject=None)
    report = run_oracles(case, oracle_config=OracleConfig(check_symbolic=True))
    assert report.ok


def test_symbolic_oracle_config_round_trips():
    config = OracleConfig(check_symbolic=True, symbolic_samples=3)
    rebuilt = OracleConfig.from_dict(config.to_dict())
    assert rebuilt.check_symbolic is True
    assert rebuilt.symbolic_samples == 3


@pytest.mark.parametrize("index", [0, 3])
def test_run_oracles_parses_each_case_once(index, monkeypatch):
    # Case 0 plants a gated defect, so the ablation oracle runs too; case 3
    # is clean.  Every leg runs the one compiled unit.
    import repro.core.kcc as kcc

    parses = []
    real_parse = kcc.parse_unit

    def counting_parse(*args, **kwargs):
        parses.append(args)
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(kcc, "parse_unit", counting_parse)
    case = generate_case(SEED, index, inject="mixed")
    report = run_oracles(case)
    assert report.ok, [failure.to_dict() for failure in report.failures]
    assert len(parses) == 1
