"""Execution environment: lvalues, bindings, stack frames, control signals.

These are the Python counterparts of the configuration cells in Figure 1 of
the paper: ``env``/``types`` (per-frame scopes mapping identifiers to object
locations and types), ``callStack`` (the frame stack), and ``control``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cfront import ctypes as ct
from repro.core.values import CValue, PointerValue


@dataclass(frozen=True)
class LValue:
    """A designated object location: a symbolic address plus the lvalue type."""

    pointer: PointerValue
    type: ct.CType

    @property
    def base(self) -> Optional[int]:
        return self.pointer.base

    @property
    def offset(self) -> int:
        return self.pointer.offset


@dataclass
class ObjectBinding:
    """An identifier bound to an object in memory."""

    name: str
    base: int
    type: ct.CType
    is_const: bool = False
    #: Memoized lvalue for this binding (base and type never change once the
    #: object exists), filled in by the planned identifier accesses of
    #: :mod:`repro.core.plans` so identifier reads do not rebuild the
    #: pointer dataclasses on every access.
    cached_lvalue: Optional[LValue] = field(default=None, repr=False, compare=False)
    #: Memoized access plan (see :func:`repro.core.plans._binding_access_plan`):
    #: the scalar access plan of the binding's type, an array's decayed
    #: pointer, or a marker for the generic read/write path.
    access_plan: Optional[object] = field(default=None, repr=False, compare=False)


@dataclass
class FunctionBinding:
    """An identifier bound to a function (definition or prototype)."""

    name: str
    type: ct.FunctionType
    has_definition: bool = False
    is_builtin: bool = False


Binding = ObjectBinding | FunctionBinding


@dataclass
class Scope:
    """One block scope: the ``env`` and ``types`` cells for a block."""

    bindings: dict[str, ObjectBinding] = field(default_factory=dict)
    owned_bases: list[int] = field(default_factory=list)


@dataclass
class Frame:
    """One function activation: an entry in the ``callStack`` cell."""

    frame_id: int
    function_name: str
    return_type: ct.CType
    scopes: list[Scope] = field(default_factory=list)
    call_line: int = 0

    def push_scope(self) -> Scope:
        scope = Scope()
        self.scopes.append(scope)
        return scope

    def pop_scope(self) -> Scope:
        return self.scopes.pop()

    def lookup(self, name: str) -> Optional[ObjectBinding]:
        for scope in reversed(self.scopes):
            binding = scope.bindings.get(name)
            if binding is not None:
                return binding
        return None

    def declare(self, binding: ObjectBinding) -> None:
        self.scopes[-1].bindings[binding.name] = binding
        self.scopes[-1].owned_bases.append(binding.base)


# ---------------------------------------------------------------------------
# Control-flow signals used by the statement executor
# ---------------------------------------------------------------------------

class BreakSignal(Exception):
    """``break``"""


class ContinueSignal(Exception):
    """``continue``"""


class GotoSignal(Exception):
    """``goto label``"""

    def __init__(self, label: str) -> None:
        self.label = label
        super().__init__(label)


class ReturnSignal(Exception):
    """``return [expr]`` — ``value is None`` for a plain ``return;``."""

    def __init__(self, value: Optional[CValue], line: int = 0) -> None:
        self.value = value
        self.line = line
        super().__init__("return")


class ExitSignal(Exception):
    """``exit(status)`` or ``abort()``."""

    def __init__(self, status: int, aborted: bool = False) -> None:
        self.status = status
        self.aborted = aborted
        super().__init__(f"exit({status})")
