"""Property tests: the abstract domain over-approximates the concrete engines.

The soundness contract of :func:`repro.symbolic.domain.abstract_binary` is
checked differentially against the real checker: for concrete operands drawn
from an abstract value's concretization, the concrete run must either produce
a value the abstract survivor contains, or stop at an undefined behavior
whose kind the abstract transfer reported as possible.  Hypothesis drives
the sampling, with the int-boundary values (INT_MIN, INT_MAX, wrap edges)
always in the pool.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cfront import ctypes as ct
from repro.core.config import DEFAULT_OPTIONS
from repro.core.kcc import KccTool
from repro.core.plans import int_binary_facts, int_type_facts
from repro.errors import OutcomeKind
from repro.symbolic.domain import (
    AbstractInt,
    ConstraintStore,
    Interval,
    abstract_binary,
    abstract_convert,
)

INT = ct.IntType(kind="int")
INT_MIN = -(2**31)
INT_MAX = 2**31 - 1

#: The values every arithmetic bug hides behind.
BOUNDARY = [
    INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, 255, 256, 65535, 65536, INT_MAX - 1, INT_MAX
]

OPS = ["+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", "<=", "==", "!="]

int_values = st.one_of(
    st.sampled_from(BOUNDARY),
    st.integers(min_value=INT_MIN, max_value=INT_MAX),
)


def _concrete(op: str, a: int, b: int):
    """Run ``a op b`` through the real checker; (value, kinds) of the run."""
    source = (
        "int main(void) {\n"
        f"  int a = {a};\n"
        f"  int b = {b};\n"
        f"  int r = a {op} b;\n"
        '  printf("%d\\n", r);\n'
        "  return 0;\n"
        "}\n"
    )
    outcome = _concrete.tool.check(source).outcome
    if outcome.kind is OutcomeKind.DEFINED:
        return int(outcome.stdout.strip()), None
    return None, set(outcome.ub_kinds)


_concrete.tool = KccTool(DEFAULT_OPTIONS)


def _assert_sound(op: str, a: int, b: int) -> None:
    facts = int_binary_facts(op, INT, INT, DEFAULT_OPTIONS, line=4)
    assert facts is not None
    survivor, ubs = abstract_binary(
        facts, AbstractInt.constant(a, INT), AbstractInt.constant(b, INT)
    )
    value, kinds = _concrete(op, a, b)
    if value is not None:
        assert survivor is not None, (
            f"{a} {op} {b}: concrete run produced {value}, abstract transfer "
            "said no execution survives"
        )
        assert survivor.contains(value), (
            f"{a} {op} {b}: concrete {value} outside abstract {survivor.lo}.."
            f"{survivor.hi} stride {survivor.stride}"
        )
    else:
        reported = {ub.kind for ub in ubs}
        assert kinds & reported, (
            f"{a} {op} {b}: concrete run stopped at {kinds}, abstract "
            f"transfer only reported {reported or 'nothing'}"
        )


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(op=st.sampled_from(OPS), a=int_values, b=int_values)
def test_constant_operands_match_concrete_engine(op, a, b):
    """Singleton abstract operands must reproduce the concrete verdict."""
    _assert_sound(op, a, b)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    op=st.sampled_from(OPS),
    lo=int_values, span=st.integers(min_value=0, max_value=10_000),
    b=int_values,
)
def test_range_operand_covers_endpoints(op, lo, span, b):
    """An interval operand's transfer covers both endpoint concretizations."""
    hi = min(lo + span, INT_MAX)
    facts = int_binary_facts(op, INT, INT, DEFAULT_OPTIONS, line=4)
    survivor, ubs = abstract_binary(
        facts, AbstractInt.from_range(lo, hi, INT), AbstractInt.constant(b, INT)
    )
    reported = {ub.kind for ub in ubs}
    for a in {lo, hi}:
        value, kinds = _concrete(op, a, b)
        if value is not None:
            assert survivor is not None and survivor.contains(value), (
                f"[{lo},{hi}] {op} {b} at endpoint {a}: concrete {value} "
                "escapes the abstract survivor"
            )
        else:
            assert kinds & reported, (
                f"[{lo},{hi}] {op} {b} at endpoint {a}: concrete UB {kinds} "
                f"not among reported {reported or 'nothing'}"
            )


@settings(max_examples=80, deadline=None)
@given(
    value=int_values,
    lo=st.integers(min_value=INT_MIN * 4, max_value=INT_MAX * 4),
    span=st.integers(min_value=0, max_value=2**33),
)
def test_conversion_wraps_like_the_machine(value, lo, span):
    """abstract_convert of a singleton equals the concrete 2^32 wrap."""
    facts = int_type_facts(INT, DEFAULT_OPTIONS.profile)
    wide = ct.IntType(kind="long")
    converted = abstract_convert(facts, AbstractInt.constant(value, wide))
    wrapped = (value - INT_MIN) % 2**32 + INT_MIN
    assert converted.is_constant and converted.value == wrapped
    # And the range form still contains the pointwise wraps of its endpoints.
    hi = lo + span
    ranged = abstract_convert(facts, AbstractInt.from_range(lo, hi, wide))
    for end in (lo, hi):
        assert ranged.contains((end - INT_MIN) % 2**32 + INT_MIN)


# ---------------------------------------------------------------------------
# AbstractInt invariants
# ---------------------------------------------------------------------------

def test_abstract_int_normalizes_bounds_onto_congruence_class():
    value = AbstractInt(1, 20, INT, stride=4, offset=3)
    assert (value.lo, value.hi) == (3, 19)
    assert value.contains(7) and not value.contains(8)
    assert value.values() == [3, 7, 11, 15, 19]


def test_abstract_int_join_keeps_shared_congruence():
    a = AbstractInt(0, 8, INT, stride=4, offset=0)
    b = AbstractInt(12, 20, INT, stride=4, offset=0)
    joined = a.join(b)
    assert (joined.lo, joined.hi, joined.stride) == (0, 20, 4)


def test_empty_abstract_value_raises():
    with pytest.raises(ValueError):
        AbstractInt(5, 2, INT)


def test_interval_reexport_is_the_baseline_interval():
    from repro.analyzers.value_analysis import Interval as BaselineInterval

    assert BaselineInterval is Interval


# ---------------------------------------------------------------------------
# ConstraintStore: the small relational layer
# ---------------------------------------------------------------------------

def test_constraint_store_decides_offset_comparison():
    store = ConstraintStore()
    # n - i ∈ [3, 3]  (n = i + 3)
    store.relate("i", "n", 3, 3)
    assert store.compare("<", "i", "n") is True
    assert store.compare(">=", "i", "n") is False
    assert store.compare("==", "i", "n") is False


def test_constraint_store_unknown_pair_is_undecided():
    store = ConstraintStore()
    assert store.compare("<", "a", "b") is None


def test_constraint_store_forget_drops_relations():
    store = ConstraintStore()
    store.relate("i", "n", 3, 3)
    store.forget("n")
    assert store.compare("<", "i", "n") is None


def test_constraint_store_assume_then_decide():
    store = ConstraintStore()
    store.assume_compare("<", "i", "n", True)
    assert store.compare("<", "i", "n") is True
    assert store.compare(">", "i", "n") is False


def test_constraint_store_join_keeps_only_common_truth():
    left = ConstraintStore()
    left.relate("i", "n", 3, 3)
    right = ConstraintStore()
    right.relate("i", "n", 5, 5)
    joined = left.join(right)
    assert joined.compare("<", "i", "n") is True   # 3..5 still positive
    assert joined.compare("==", "i", "n") is False
    # Joining with an empty store loses the pair entirely.
    assert left.join(ConstraintStore()).compare("<", "i", "n") is None
