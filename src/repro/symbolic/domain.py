"""Abstract values and transfer functions for the symbolic engine.

Three layers live here:

* :class:`Interval` — the plain (possibly unbounded) integer interval that
  the value-analysis baseline has always used; it moved here so the
  baseline and the prover share one definition
  (:mod:`repro.analyzers.value_analysis` re-exports it).
* :class:`AbstractInt` — a *typed*, bounded interval-with-congruence value:
  every member is ``≡ offset (mod stride)`` and inside ``[lo, hi]``.  This
  is the element the abstract evaluator pushes through expressions.
* The transfer functions (:func:`abstract_convert`, :func:`abstract_binary`,
  :func:`abstract_negate`, ...) — these consume the *same*
  :class:`repro.core.plans.IntTypeFacts` / ``IntBinaryFacts`` objects
  that specialize the concrete engines' plans, so the abstract semantics
  can never disagree with the dynamic semantics about a bound, a wrap mask
  or whether a check is armed.  Each ``check_*`` family maps to an interval
  test; the result is the surviving abstract value plus a list of
  :class:`PossibleUB` records (``certain=True`` when *every* concretization
  triggers the behavior).

A small relational layer, :class:`ConstraintStore`, tracks difference
bounds ``y - x ∈ [lo, hi]`` between named cells; the evaluator consults it
to decide comparisons that plain intervals cannot (``i < n`` after
``n = i + 3``), and the search engine's path merging uses the same joined
intervals over differing cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cfront import ctypes as ct
from repro.core.plans import IntBinaryFacts, IntTypeFacts, int_type_facts
from repro.errors import UBKind


# ---------------------------------------------------------------------------
# The unbounded interval (shared with the value-analysis baseline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """A (possibly unbounded) integer interval ``[low, high]``.

    ``None`` bounds represent minus/plus infinity.  The bottom interval is
    represented by ``Interval.bottom()`` (low > high convention).
    """

    low: int | None = None
    high: int | None = None
    is_bottom: bool = False

    # -- constructors -------------------------------------------------------
    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def bottom() -> "Interval":
        return Interval(0, 0, is_bottom=True)

    @staticmethod
    def constant(value: int) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def range(low: int | None, high: int | None) -> "Interval":
        if low is not None and high is not None and low > high:
            return Interval.bottom()
        return Interval(low, high)

    # -- queries ------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return not self.is_bottom and self.low is not None and self.low == self.high

    def contains(self, value: int) -> bool:
        if self.is_bottom:
            return False
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    def may_be_zero(self) -> bool:
        return self.contains(0)

    def may_exceed(self, low: int, high: int) -> bool:
        """Could a value in this interval fall outside ``[low, high]``?"""
        if self.is_bottom:
            return False
        if self.low is None or self.low < low:
            return True
        if self.high is None or self.high > high:
            return True
        return False

    # -- lattice operations --------------------------------------------------
    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        low = (
            None if self.low is None or other.low is None else min(self.low, other.low)
        )
        high = (
            None
            if self.high is None or other.high is None
            else max(self.high, other.high)
        )
        return Interval(low, high)

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        low = (
            self.low
            if other.low is None
            else (other.low if self.low is None else max(self.low, other.low))
        )
        high = (
            self.high
            if other.high is None
            else (other.high if self.high is None else min(self.high, other.high))
        )
        return Interval.range(low, high)

    def widen(self, other: "Interval") -> "Interval":
        """Standard interval widening: unstable bounds jump to infinity."""
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        low = self.low
        if self.low is None or other.low is None or other.low < self.low:
            low = None
        high = self.high
        if self.high is None or other.high is None or other.high > self.high:
            high = None
        return Interval(low, high)

    # -- arithmetic -----------------------------------------------------------
    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        low = None if self.low is None or other.low is None else self.low + other.low
        high = (
            None if self.high is None or other.high is None else self.high + other.high
        )
        return Interval(low, high)

    def negate(self) -> "Interval":
        if self.is_bottom:
            return self
        low = None if self.high is None else -self.high
        high = None if self.low is None else -self.low
        return Interval(low, high)

    def subtract(self, other: "Interval") -> "Interval":
        return self.add(other.negate())

    def multiply(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        if None in (self.low, self.high, other.low, other.high):
            return Interval.top()
        products = [
            self.low * other.low,
            self.low * other.high,
            self.high * other.low,
            self.high * other.high,
        ]
        return Interval(min(products), max(products))

    def __str__(self) -> str:
        if self.is_bottom:
            return "⊥"
        low = "-inf" if self.low is None else str(self.low)
        high = "+inf" if self.high is None else str(self.high)
        return f"[{low}, {high}]"


# ---------------------------------------------------------------------------
# Typed interval-with-congruence values
# ---------------------------------------------------------------------------

class AbstractInt:
    """A finite integer interval with congruence, tagged with its C type.

    Concretization: ``{ v | lo <= v <= hi  and  v ≡ offset (mod stride) }``.
    ``stride == 1`` is the plain interval.  Instances are normalized on
    construction: the offset is reduced, and the bounds are tightened onto
    the congruence class, so ``lo`` and ``hi`` are always themselves members
    — which is what lets the soundness oracle sample *endpoints* of every
    proved range and know they are concretizable.
    """

    __slots__ = ("type", "lo", "hi", "stride", "offset")

    def __init__(
        self, lo: int, hi: int, ctype: ct.CType, stride: int = 1, offset: int = 0
    ) -> None:
        if stride < 1:
            stride = 1
        offset %= stride
        if stride > 1:
            # Tighten the bounds onto the congruence class.
            lo += (offset - lo) % stride
            hi -= (hi - offset) % stride
        if lo > hi:
            raise ValueError(f"empty abstract value [{lo}, {hi}] stride {stride}")
        if lo == hi:
            stride, offset = 1, 0
        self.type = ctype
        self.lo = lo
        self.hi = hi
        self.stride = stride
        self.offset = offset

    # -- constructors -------------------------------------------------------
    @staticmethod
    def constant(value: int, ctype: ct.CType) -> "AbstractInt":
        return AbstractInt(value, value, ctype)

    @staticmethod
    def from_range(lo: int, hi: int, ctype: ct.CType) -> "AbstractInt":
        return AbstractInt(lo, hi, ctype)

    @staticmethod
    def top(facts: IntTypeFacts) -> "AbstractInt":
        return AbstractInt(facts.lo, facts.hi, facts.type)

    # -- queries ------------------------------------------------------------
    @property
    def is_constant(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        assert self.is_constant
        return self.lo

    def contains(self, value: int) -> bool:
        return (self.lo <= value <= self.hi and value % self.stride == self.offset)

    def count(self) -> int:
        """How many concrete values this abstract value covers."""
        return (self.hi - self.lo) // self.stride + 1

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def values(self, limit: int = 64) -> Optional[list[int]]:
        """The concrete members, if there are at most ``limit`` of them."""
        if self.count() > limit:
            return None
        return list(range(self.lo, self.hi + 1, self.stride))

    # -- lattice ------------------------------------------------------------
    def join(self, other: "AbstractInt") -> "AbstractInt":
        stride = math.gcd(self.stride, other.stride, abs(self.offset - other.offset))
        if stride < 1:
            stride = 1
        return AbstractInt(
            min(self.lo, other.lo),
            max(self.hi, other.hi),
            self.type,
            stride,
            self.lo % stride if stride > 1 else 0,
        )

    def widen(self, other: "AbstractInt", facts: IntTypeFacts) -> "AbstractInt":
        """Widen ``self`` by ``other``: unstable bounds jump to the type range."""
        lo = self.lo if other.lo >= self.lo else facts.lo
        hi = self.hi if other.hi <= self.hi else facts.hi
        stride = math.gcd(self.stride, other.stride)
        if stride > 1 and self.offset % stride != other.offset % stride:
            stride = 1
        return AbstractInt(
            lo, hi, self.type, stride, self.lo % stride if stride > 1 else 0
        )

    def meet_range(self, lo: int, hi: int) -> Optional["AbstractInt"]:
        """Intersect with ``[lo, hi]``; None if empty."""
        new_lo, new_hi = max(self.lo, lo), min(self.hi, hi)
        if new_lo > new_hi:
            return None
        try:
            return AbstractInt(new_lo, new_hi, self.type, self.stride, self.offset)
        except ValueError:
            return None

    def same_set(self, other: "AbstractInt") -> bool:
        return (
            self.lo == other.lo
            and self.hi == other.hi
            and self.stride == other.stride
            and self.offset == other.offset
        )

    def retype(self, ctype: ct.CType) -> "AbstractInt":
        return AbstractInt(self.lo, self.hi, ctype, self.stride, self.offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cong = f" ≡{self.offset} (mod {self.stride})" if self.stride > 1 else ""
        return f"AbstractInt([{self.lo}, {self.hi}]{cong}: {self.type})"


#: Abstract booleans, as the concrete comparisons produce them (``int`` 0/1).
def abstract_bool(definitely: Optional[bool]) -> AbstractInt:
    if definitely is True:
        return AbstractInt.constant(1, ct.INT)
    if definitely is False:
        return AbstractInt.constant(0, ct.INT)
    return AbstractInt(0, 1, ct.INT)


# ---------------------------------------------------------------------------
# Possible / certain undefined behaviors found by a transfer function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PossibleUB:
    """One undefined behavior an abstract operation could not rule out.

    ``certain=True`` means *every* concretization of the operands triggers
    the behavior — the ingredient of a ``PROVED_UNDEFINED`` verdict when it
    happens on a path whose reachability is itself definite.  ``witness``
    is the interval of offending values (the out-of-range results, the zero
    divisor, the bad shift amounts ...).
    """

    kind: UBKind
    message: str
    line: int
    certain: bool
    witness: Interval = Interval.top()


# ---------------------------------------------------------------------------
# Transfer functions over the shared integer facts
# ---------------------------------------------------------------------------

def abstract_wrap(
    facts: IntTypeFacts, lo: int, hi: int, stride: int = 1, offset: int = 0
) -> AbstractInt:
    """The interval image of ``conversions._int_to_int`` (modular wrap).

    A single wrapped segment keeps the congruence exactly; a straddling
    range collapses to the type range with the congruence reduced to
    ``gcd(stride, 2**bits)`` (the wrap distance is a multiple of
    ``2**bits``, so that much of the congruence survives).
    """
    if facts.lo <= lo and hi <= facts.hi:
        return AbstractInt(lo, hi, facts.type, stride, offset)
    span = 1 << facts.bits
    k_lo, k_hi = (lo - facts.lo) // span, (hi - facts.lo) // span
    if k_lo == k_hi:
        shift = k_lo * span
        return AbstractInt(
            lo - shift,
            hi - shift,
            facts.type,
            stride,
            (offset - shift) % stride if stride > 1 else 0,
        )
    stride = math.gcd(stride, span)
    if stride < 1:
        stride = 1
    return AbstractInt(
        facts.lo + (offset - facts.lo) % stride if stride > 1 else facts.lo,
        facts.hi,
        facts.type,
        stride,
        offset % stride,
    )


def abstract_convert(facts: IntTypeFacts, value: AbstractInt) -> AbstractInt:
    """Convert an abstract integer to the type described by ``facts``.

    Mirrors ``plans.raw_conversion_plan``: in-range values are retyped, anything
    else wraps modularly.  Integer conversions never raise in this
    semantics, so no :class:`PossibleUB` can come out of here.
    """
    if facts.lo <= value.lo and value.hi <= facts.hi:
        return value.retype(facts.type)
    return abstract_wrap(facts, value.lo, value.hi, value.stride, value.offset)


def abstract_to_bool(value: AbstractInt) -> AbstractInt:
    """``_Bool`` conversion / truth test: ``1 if v != 0 else 0``."""
    if not value.contains(0):
        return AbstractInt.constant(1, ct.BOOL)
    if value.is_constant:
        return AbstractInt.constant(0, ct.BOOL)
    return AbstractInt(0, 1, ct.BOOL)


def _arith_result_abs(
    facts: IntBinaryFacts,
    lo: int,
    hi: int,
    stride: int,
    offset: int,
    overflow_possible: bool,
    ubs: list[PossibleUB],
) -> Optional[AbstractInt]:
    """Abstract twin of the plans' ``arith_result`` closure.

    Returns the surviving abstract result (executions that raised are dead,
    so a straddling signed result is refined to the in-range part), or None
    when *no* execution survives — every concretization overflows.
    """
    common = facts.common
    if common.lo <= lo and hi <= common.hi:
        return AbstractInt(lo, hi, common.type, stride, offset)
    if common.signed:
        if facts.check_arithmetic and overflow_possible:
            certain = hi < common.lo or lo > common.hi
            ubs.append(
                PossibleUB(
                    UBKind.SIGNED_OVERFLOW,
                    f"Signed integer overflow: result does not fit in {common.type}.",
                    facts.line,
                    certain=certain,
                    witness=Interval(lo, hi),
                )
            )
            if certain:
                return None
            survivor = AbstractInt(lo, hi, common.type, stride, offset)
            return survivor.meet_range(common.lo, common.hi)
        return abstract_wrap(common, lo, hi, stride, offset)
    return abstract_wrap(common, lo, hi, stride, offset)


def _div_bounds(a: AbstractInt, b_lo: int, b_hi: int) -> tuple[int, int]:
    """Bounds of ``a / b`` (truncating) for a divisor range excluding 0.

    Truncating division is monotone in the dividend for a fixed divisor and
    extremal at the divisor endpoints within each sign, so endpoint
    combinations over each divisor sign segment suffice.
    """
    candidates: list[int] = []
    segments = []
    if b_lo <= -1:
        segments.append((b_lo, min(b_hi, -1)))
    if b_hi >= 1:
        segments.append((max(b_lo, 1), b_hi))
    for seg_lo, seg_hi in segments:
        for a_end in (a.lo, a.hi):
            for b_end in (seg_lo, seg_hi):
                candidates.append(ct.trunc_div(a_end, b_end))
    return min(candidates), max(candidates)


def _refine_nonzero(value: AbstractInt) -> Optional[AbstractInt]:
    """The subset of ``value`` excluding 0; None if that is empty."""
    if not value.contains(0):
        return value
    if value.is_constant:
        return None
    lo, hi = value.lo, value.hi
    if lo == 0:
        lo += value.stride if value.offset == 0 else 1
    if hi == 0:
        hi -= value.stride if value.offset == 0 else 1
    if lo > hi:
        return None
    try:
        return AbstractInt(lo, hi, value.type, value.stride, value.offset)
    except ValueError:
        return None


def _shift_candidates(a: AbstractInt, b_lo: int, b_hi: int, left: bool) -> tuple[
    int, int
]:
    results = []
    for a_end in (a.lo, a.hi):
        for b_end in (b_lo, b_hi):
            results.append(a_end << b_end if left else a_end >> b_end)
    return min(results), max(results)


def abstract_binary(facts: IntBinaryFacts, left: AbstractInt,
                    right: AbstractInt,
                    ) -> tuple[Optional[AbstractInt], list[PossibleUB]]:
    """Abstract twin of ``plans.raw_binary_plan``'s specialized closures.

    Returns ``(survivor, ubs)``: the abstract result for the executions
    that did not stop at a check, plus every undefined behavior the
    operation may (or must — ``certain=True``) trigger.  A ``None``
    survivor means no execution gets past this operation.

    Soundness contract (pinned by ``tests/symbolic/test_domain_properties``):
    for any concrete operands in the operands' concretizations, the concrete
    plan either raises a UB whose kind appears in ``ubs``, or produces a
    value contained in ``survivor``.
    """
    common = facts.common
    op = facts.op
    line = facts.line
    ubs: list[PossibleUB] = []
    a = abstract_convert(common, left)
    b = abstract_convert(common, right)

    if op in ("<", ">", "<=", ">=", "==", "!="):
        return _abstract_compare(op, a, b), ubs

    if op == "+":
        result = _arith_result_abs(
            facts,
            a.lo + b.lo,
            a.hi + b.hi,
            math.gcd(a.stride, b.stride),
            a.offset + b.offset,
            True,
            ubs,
        )
        return result, ubs
    if op == "-":
        result = _arith_result_abs(
            facts,
            a.lo - b.hi,
            a.hi - b.lo,
            math.gcd(a.stride, b.stride),
            a.offset - b.offset,
            True,
            ubs,
        )
        return result, ubs
    if op == "*":
        products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        # v1*v2 ≡ o1*o2 (mod gcd(s1, s2)); multiplying by a constant c
        # scales the other operand's congruence to c*v ≡ c*o (mod |c|*s).
        stride = math.gcd(a.stride, b.stride)
        offset = a.offset * b.offset
        if a.is_constant and a.value != 0:
            stride, offset = abs(a.value) * b.stride, a.value * b.offset
        elif b.is_constant and b.value != 0:
            stride, offset = abs(b.value) * a.stride, b.value * a.offset
        result = _arith_result_abs(
            facts, min(products), max(products), max(stride, 1), offset, True, ubs
        )
        return result, ubs

    if op in ("/", "%"):
        divisor = b
        if divisor.contains(0):
            certain = divisor.is_constant
            if facts.check_arithmetic:
                ubs.append(
                    PossibleUB(
                        UBKind.DIVISION_BY_ZERO,
                        "Division or modulus by zero.",
                        line,
                        certain=certain,
                        witness=Interval.constant(0),
                    )
                )
                if certain:
                    return None, ubs
                divisor = _refine_nonzero(divisor)
            else:
                # Check disabled: b == 0 concretely yields 0, the rest divide.
                refined = _refine_nonzero(divisor)
                if refined is None:
                    return AbstractInt.constant(0, common.type), ubs
                result, more = abstract_binary(facts, a, refined)
                ubs.extend(more)
                if result is None:
                    return AbstractInt.constant(0, common.type), ubs
                return result.join(AbstractInt.constant(0, common.type)), ubs
        if divisor is None:
            return None, ubs
        if op == "/":
            q_lo, q_hi = _div_bounds(a, divisor.lo, divisor.hi)
            return _arith_result_abs(facts, q_lo, q_hi, 1, 0, True, ubs), ubs
        # Remainder: |r| < max|b| and |r| <= max|a|, sign follows the dividend.
        magnitude = min(
            max(abs(divisor.lo), abs(divisor.hi)) - 1, max(abs(a.lo), abs(a.hi))
        )
        r_lo = 0 if a.lo >= 0 else -magnitude
        r_hi = 0 if a.hi <= 0 else magnitude
        if a.is_constant and divisor.is_constant:
            exact = a.value - ct.trunc_div(a.value, divisor.value) * divisor.value
            r_lo = r_hi = exact
        return _arith_result_abs(facts, r_lo, r_hi, 1, 0, True, ubs), ubs

    if op in ("&", "|", "^"):
        return _abstract_bitwise(facts, op, a, b, ubs), ubs

    if op in ("<<", ">>"):
        return _abstract_shift(facts, op, a, b, ubs), ubs

    raise ValueError(f"unplanned integer operator {op!r}")


def _abstract_compare(op: str, a: AbstractInt, b: AbstractInt) -> AbstractInt:
    definite: Optional[bool] = None
    if op == "<":
        definite = True if a.hi < b.lo else (False if a.lo >= b.hi else None)
    elif op == ">":
        definite = True if a.lo > b.hi else (False if a.hi <= b.lo else None)
    elif op == "<=":
        definite = True if a.hi <= b.lo else (False if a.lo > b.hi else None)
    elif op == ">=":
        definite = True if a.lo >= b.hi else (False if a.hi < b.lo else None)
    elif op == "==":
        if a.is_constant and b.is_constant:
            definite = a.value == b.value
        elif a.hi < b.lo or b.hi < a.lo:
            definite = False
        else:
            g = math.gcd(a.stride, b.stride)
            if g > 1 and a.offset % g != b.offset % g:
                definite = False
    elif op == "!=":
        if a.is_constant and b.is_constant:
            definite = a.value != b.value
        elif a.hi < b.lo or b.hi < a.lo:
            definite = True
        else:
            g = math.gcd(a.stride, b.stride)
            if g > 1 and a.offset % g != b.offset % g:
                definite = True
    return abstract_bool(definite)


def _abstract_bitwise(
    facts: IntBinaryFacts,
    op: str,
    a: AbstractInt,
    b: AbstractInt,
    ubs: list[PossibleUB],
) -> Optional[AbstractInt]:
    common = facts.common
    if a.is_constant and b.is_constant:
        value = {
            "&": a.value & b.value,
            "|": a.value | b.value,
            "^": a.value ^ b.value,
        }[op]
        return _arith_result_abs(facts, value, value, 1, 0, False, ubs)
    if a.lo >= 0 and b.lo >= 0:
        if op == "&":
            lo, hi = 0, min(a.hi, b.hi)
        else:
            bound = (1 << max(a.hi, b.hi).bit_length()) - 1
            lo, hi = (max(a.lo, b.lo), bound) if op == "|" else (0, bound)
        return _arith_result_abs(facts, lo, hi, 1, 0, False, ubs)
    # A negative operand: the exact bit-level bounds are fiddly; fall back
    # to the whole type range (bitwise ops cannot raise, so this is sound,
    # just imprecise).
    return AbstractInt.top(common)


def _abstract_shift(
    facts: IntBinaryFacts,
    op: str,
    a: AbstractInt,
    b: AbstractInt,
    ubs: list[PossibleUB],
) -> Optional[AbstractInt]:
    common = facts.common
    bits = common.bits
    line = facts.line
    if facts.check_arithmetic and (b.lo < 0 or b.hi >= bits):
        certain = b.hi < 0 or b.lo >= bits
        ubs.append(
            PossibleUB(
                UBKind.SHIFT_TOO_FAR,
                f"Shift amount is negative or >= width of the type ({bits} bits).",
                line,
                certain=certain,
                witness=Interval(b.lo, b.hi),
            )
        )
        if certain:
            return None
        b = b.meet_range(0, bits - 1)
        if b is None:
            return None
    else:
        # The concrete plan clamps each value with max(0, min(b, bits-1))
        # before shifting; clamping breaks congruence, so keep bounds only.
        b = AbstractInt(
            max(0, min(b.lo, bits - 1)), max(0, min(b.hi, bits - 1)), common.type
        )
    if op == "<<":
        if facts.check_arithmetic and common.signed and a.lo < 0:
            certain = a.hi < 0
            ubs.append(
                PossibleUB(
                    UBKind.SHIFT_NEGATIVE,
                    "Left shift of a negative value.",
                    line,
                    certain=certain,
                    witness=Interval(a.lo, min(a.hi, -1)),
                )
            )
            if certain:
                return None
            a = a.meet_range(0, a.hi)
            if a is None:
                return None
        lo, hi = _shift_candidates(a, b.lo, b.hi, left=True)
        if (
            common.signed
            and facts.check_arithmetic
            and (lo < common.lo or hi > common.hi)
        ):
            certain = hi < common.lo or lo > common.hi
            ubs.append(
                PossibleUB(
                    UBKind.SHIFT_OVERFLOW,
                    f"Left shift overflows {common.type}.",
                    line,
                    certain=certain,
                    witness=Interval(lo, hi),
                )
            )
            if certain:
                return None
            lo, hi = max(lo, common.lo), min(hi, common.hi)
        stride = (a.stride << b.lo) if b.is_constant else 1
        offset = (a.offset << b.lo) if b.is_constant else 0
        return _arith_result_abs(
            facts, lo, hi, max(stride, 1), offset, not common.signed, ubs
        )
    lo, hi = _shift_candidates(a, b.lo, b.hi, left=False)
    return AbstractInt(lo, hi, common.type)


def abstract_negate(facts: IntTypeFacts, check_arithmetic: bool,
                    value: AbstractInt, line: int,
                    ) -> tuple[Optional[AbstractInt], list[PossibleUB]]:
    """Abstract twin of unary minus (``_arith_result(-v, promoted)``)."""
    ubs: list[PossibleUB] = []
    v = abstract_convert(facts, value)
    lo, hi = -v.hi, -v.lo
    if facts.lo <= lo and hi <= facts.hi:
        return AbstractInt(lo, hi, facts.type, v.stride, -v.offset), ubs
    if facts.signed and check_arithmetic:
        certain = hi < facts.lo or lo > facts.hi
        ubs.append(
            PossibleUB(
                UBKind.SIGNED_OVERFLOW,
                f"Signed integer overflow: result does not fit in {facts.type}.",
                line,
                certain=certain,
                witness=Interval(lo, hi),
            )
        )
        if certain:
            return None, ubs
        survivor = AbstractInt(lo, hi, facts.type, v.stride, -v.offset)
        return survivor.meet_range(facts.lo, facts.hi), ubs
    return abstract_wrap(facts, lo, hi, v.stride, -v.offset), ubs


def abstract_complement(facts: IntTypeFacts, value: AbstractInt) -> AbstractInt:
    """Abstract ``~v`` (== ``-v - 1``; always in range for promoted types)."""
    v = abstract_convert(facts, value)
    return abstract_wrap(facts, -v.hi - 1, -v.lo - 1, v.stride, -v.offset - 1)


# ---------------------------------------------------------------------------
# The relational constraint store
# ---------------------------------------------------------------------------

class ConstraintStore:
    """Difference bounds ``y - x ∈ [lo, hi]`` over named integer cells.

    A deliberately small relational domain: enough to decide ``i < n``
    when the program established ``n = i + 3``, which plain intervals lose
    the moment ``i`` widens.  Every write to a cell must ``forget`` it.
    """

    __slots__ = ("relations",)

    def __init__(self, relations: Optional[dict] = None) -> None:
        #: {(x, y): (lo, hi)} with x < y lexicographically, meaning
        #: y - x ∈ [lo, hi]; None bounds are infinities.
        self.relations: dict[tuple[str, str], tuple[Optional[int], Optional[int]]] = (
            dict(relations) if relations else {}
        )

    def copy(self) -> "ConstraintStore":
        return ConstraintStore(self.relations)

    @staticmethod
    def _key(x: str, y: str) -> tuple[tuple[str, str], int]:
        """Canonical key plus orientation (+1 if stored as y-x, else -1)."""
        return ((x, y), 1) if x < y else ((y, x), -1)

    def relate(self, x: str, y: str, lo: Optional[int], hi: Optional[int]) -> None:
        """Assert ``y - x ∈ [lo, hi]`` (intersected with what is known)."""
        if x == y:
            return
        key, sign = self._key(x, y)
        if sign < 0:
            lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
        old_lo, old_hi = self.relations.get(key, (None, None))
        new_lo = lo if old_lo is None else (old_lo if lo is None else max(lo, old_lo))
        new_hi = hi if old_hi is None else (old_hi if hi is None else min(hi, old_hi))
        self.relations[key] = (new_lo, new_hi)

    def difference(self, x: str, y: str) -> tuple[Optional[int], Optional[int]]:
        """Known bounds of ``y - x``; ``(None, None)`` when unrelated."""
        key, sign = self._key(x, y)
        lo, hi = self.relations.get(key, (None, None))
        if sign < 0:
            lo, hi = (None if hi is None else -hi), (None if lo is None else -lo)
        return lo, hi

    def forget(self, name: str) -> None:
        """Drop every relation involving ``name`` (it was overwritten)."""
        self.relations = {
            key: bounds for key, bounds in self.relations.items() if name not in key
        }

    def join(self, other: "ConstraintStore") -> "ConstraintStore":
        """Keep only relations both stores agree on, with joined bounds."""
        joined: dict = {}
        for key, (lo, hi) in self.relations.items():
            if key not in other.relations:
                continue
            olo, ohi = other.relations[key]
            jlo = None if lo is None or olo is None else min(lo, olo)
            jhi = None if hi is None or ohi is None else max(hi, ohi)
            if jlo is not None or jhi is not None:
                joined[key] = (jlo, jhi)
        return ConstraintStore(joined)

    def compare(self, op: str, x: str, y: str) -> Optional[bool]:
        """Decide ``x op y`` from the difference bounds, if possible."""
        lo, hi = self.difference(x, y)  # y - x
        if op == "<":  # x < y  <=>  y - x >= 1
            if lo is not None and lo >= 1:
                return True
            if hi is not None and hi <= 0:
                return False
        elif op == "<=":
            if lo is not None and lo >= 0:
                return True
            if hi is not None and hi < 0:
                return False
        elif op == ">":
            if hi is not None and hi <= -1:
                return True
            if lo is not None and lo >= 0:
                return False
        elif op == ">=":
            if hi is not None and hi <= 0:
                return True
            if lo is not None and lo > 0:
                return False
        elif op == "==":
            if lo == hi == 0:
                return True
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return False
        elif op == "!=":
            if lo == hi == 0:
                return False
            if (lo is not None and lo > 0) or (hi is not None and hi < 0):
                return True
        return None

    def assume_compare(self, op: str, x: str, y: str, truth: bool) -> None:
        """Refine the store with the knowledge that ``x op y`` is ``truth``."""
        negated = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
        effective = op if truth else negated[op]
        if effective == "<":
            self.relate(x, y, 1, None)
        elif effective == "<=":
            self.relate(x, y, 0, None)
        elif effective == ">":
            self.relate(x, y, None, -1)
        elif effective == ">=":
            self.relate(x, y, None, 0)
        elif effective == "==":
            self.relate(x, y, 0, 0)
        # "!=" carries no difference-bound information.


def join_cells(values: Iterable[AbstractInt]) -> AbstractInt:
    """Join a non-empty iterable of abstract values."""
    result: Optional[AbstractInt] = None
    for value in values:
        result = value if result is None else result.join(value)
    assert result is not None
    return result


__all__ = [
    "Interval",
    "AbstractInt",
    "PossibleUB",
    "ConstraintStore",
    "abstract_binary",
    "abstract_bool",
    "abstract_complement",
    "abstract_convert",
    "abstract_negate",
    "abstract_to_bool",
    "abstract_wrap",
    "int_type_facts",
    "join_cells",
]
