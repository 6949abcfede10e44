"""The raw arithmetic plans against the nested composition they replaced.

Each plan of :mod:`repro.core.plans` is one closure with inline range tests.
The reference below is the composition they were built from: convert each
operand with the common type's ``wrap``, operate, and check the result with
``arith_result``, one call each.  For every operator, every ordered pair of
flat integer types, operands inside and outside the operand types' ranges,
and the arithmetic checks on and off, a plan must return the reference's
value (an ``int``, never a ``bool``) or raise its error kind and message.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cfront import ctypes as ct
from repro.core.config import CheckerOptions
from repro.core.plans import (
    int_binary_facts,
    int_type_facts,
    raw_binary_plan,
    raw_conversion_plan,
    raw_incdec_plan,
    raw_unary_plan,
)
from repro.errors import UBKind, UndefinedBehaviorError

TYPES = (
    ct.BOOL,
    ct.CHAR,
    ct.SCHAR,
    ct.UCHAR,
    ct.SHORT,
    ct.USHORT,
    ct.INT,
    ct.UINT,
    ct.LONG,
    ct.ULONG,
    ct.LLONG,
    ct.ULLONG,
)

BINARY = "+ - * / % << >> & | ^ < > <= >= == !=".split()

#: In range of some types and out of range of others, shift widths, and
#: values out of range of every type.
OPERANDS = (
    0,
    1,
    -1,
    -7,
    31,
    32,
    64,
    255,
    2**31 - 1,
    -(2**31),
    2**32 - 1,
    -(2**63),
    2**63,
    2**64 + 5,
    -(2**64) - 3,
)

LINE = 9


# -- the reference: the nested composition ----------------------------------


def reference_result(facts, check_arithmetic):
    lo, hi, signed, wrap = facts.lo, facts.hi, facts.signed, facts.wrap

    def arith_result(value, overflow_possible=True):
        if lo <= value <= hi:
            return value
        if signed and check_arithmetic and overflow_possible:
            raise UndefinedBehaviorError(
                UBKind.SIGNED_OVERFLOW,
                f"Signed integer overflow: result {value} does not fit in "
                f"{facts.type}.",
                line=LINE,
            )
        return wrap(value)

    return arith_result


def reference_binary(op, left_type, right_type, options):
    facts = int_binary_facts(op, left_type, right_type, options, LINE)
    common = facts.common
    lo, hi, bits, conv = common.lo, common.hi, common.bits, common.wrap
    signed = common.signed
    check = facts.check_arithmetic
    arith_result = reference_result(common, check)
    comparisons = {
        "<": lambda a, b: a < b,
        ">": lambda a, b: a > b,
        "<=": lambda a, b: a <= b,
        ">=": lambda a, b: a >= b,
        "==": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
    }
    if op in comparisons:
        return lambda a, b: 1 if comparisons[op](conv(a), conv(b)) else 0
    if op in "+-*":
        arith = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
        }
        return lambda a, b: arith_result(arith[op](conv(a), conv(b)))
    if op in ("/", "%"):

        def divmod_(a, b):
            a, b = conv(a), conv(b)
            if b == 0:
                if check:
                    raise UndefinedBehaviorError(
                        UBKind.DIVISION_BY_ZERO,
                        "Division or modulus by zero.",
                        line=LINE,
                    )
                return 0
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            if op == "/":
                return arith_result(quotient)
            return arith_result(a - quotient * b)

        return divmod_
    if op in "&|^":
        bitwise = {
            "&": lambda a, b: a & b,
            "|": lambda a, b: a | b,
            "^": lambda a, b: a ^ b,
        }
        return lambda a, b: arith_result(bitwise[op](conv(a), conv(b)), False)

    def shift(a, b):
        a, b = conv(a), conv(b)
        if check and (b < 0 or b >= bits):
            raise UndefinedBehaviorError(
                UBKind.SHIFT_TOO_FAR,
                f"Shift amount {b} is negative or >= width of the type "
                f"({bits} bits).",
                line=LINE,
            )
        b = max(0, min(b, bits - 1))
        if op == ">>":
            return a >> b
        if check and signed and a < 0:
            raise UndefinedBehaviorError(
                UBKind.SHIFT_NEGATIVE, "Left shift of a negative value.", line=LINE
            )
        result = a << b
        if signed and check and not lo <= result <= hi:
            raise UndefinedBehaviorError(
                UBKind.SHIFT_OVERFLOW,
                f"Left shift of {a} by {b} overflows {common.type}.",
                line=LINE,
            )
        return arith_result(result, not signed)

    return shift


def promoted(operand_type, options):
    profile = options.profile
    return int_type_facts(ct.promote_integer(operand_type, profile), profile)


def reference_unary(op, operand_type, options):
    facts = promoted(operand_type, options)
    arith_result = reference_result(facts, options.check_arithmetic)
    if op == "+":
        return facts.wrap
    if op == "-":
        return lambda value: arith_result(-facts.wrap(value))
    return lambda value: arith_result(~facts.wrap(value))


def reference_incdec(delta, var_type, options):
    facts = promoted(var_type, options)
    to_var = raw_conversion_plan(var_type, options.profile)
    arith_result = reference_result(facts, options.check_arithmetic)

    def plan(value):
        result = facts.wrap(value) + delta
        if facts.lo <= result <= facts.hi:
            return to_var(result)
        return to_var(arith_result(result))

    return plan


# -- the comparison ------------------------------------------------------------


def outcome(plan, *operands):
    try:
        value = plan(*operands)
    except UndefinedBehaviorError as error:
        return ("raise", error.kind, error.message, error.line)
    return ("value", type(value), value)


OPTIONS = {
    "checked": CheckerOptions(),
    "unchecked": CheckerOptions(check_arithmetic=False),
}


@pytest.mark.parametrize("label", list(OPTIONS))
@pytest.mark.parametrize("op", BINARY)
def test_binary_plans_match_the_composition(op, label):
    options = OPTIONS[label]
    for left_type, right_type in itertools.product(TYPES, TYPES):
        plan, result_type = raw_binary_plan(op, left_type, right_type, options, LINE)
        facts = int_binary_facts(op, left_type, right_type, options, LINE)
        comparison = op in ("<", ">", "<=", ">=", "==", "!=")
        assert result_type == (ct.INT if comparison else facts.common.type)
        reference = reference_binary(op, left_type, right_type, options)
        for a, b in itertools.product(OPERANDS, OPERANDS):
            expected = outcome(reference, a, b)
            assert expected[0] == "raise" or expected[1] is int
            assert outcome(plan, a, b) == expected, (op, left_type, right_type, a, b)


@pytest.mark.parametrize("label", list(OPTIONS))
def test_unary_and_incdec_plans_match_the_composition(label):
    options = OPTIONS[label]
    for operand_type in TYPES:
        for op in "+-~":
            plan, result_type = raw_unary_plan(op, operand_type, options, LINE)
            assert result_type == promoted(operand_type, options).type
            reference = reference_unary(op, operand_type, options)
            for value in OPERANDS:
                assert outcome(plan, value) == outcome(reference, value), (op, value)
        for delta in (1, -1):
            plan = raw_incdec_plan(delta, operand_type, options, LINE)
            reference = reference_incdec(delta, operand_type, options)
            for value in OPERANDS:
                assert outcome(plan, value) == outcome(reference, value), (delta, value)
