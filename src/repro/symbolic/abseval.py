"""The abstract evaluator: one pass covers a family of concrete inputs.

This walks the parsed AST of the supported fuzz subset with
:class:`repro.symbolic.domain.AbstractInt` values, driven by the *same*
per-site facts (:func:`repro.core.plans.int_type_facts` /
:func:`repro.core.plans.int_binary_facts`) that specialize the concrete
engines, so every armed ``check_*`` becomes an interval test.

Design contract — three ways out, all honest:

* **completed**: main finished on every abstract path.  If no
  :class:`PossibleUB` was recorded and no loop needed widening, every
  concrete execution drawn from the input ranges is defined.
* **stuck with a certain UB**: a path whose reachability is *definite*
  (no abstract fork taken, no precision-losing refinement survived into
  it) reached an operation where every concretization triggers the same
  undefined behavior — the first such operation in the engine's
  left-to-right order, so the kind and line match the dynamic verdict.
* **bail**: the program uses something outside the modeled subset
  (floats, switch/goto, unknown pointers, recursion, unbounded loops the
  widening cannot finish, ...).  Never guess: bailing is INCONCLUSIVE.

Anything that loses path precision (an indefinite branch, a widened
loop) *downgrades* certainty — certain UBs found beyond such a point are
reported as possible only, which can cost a PROVED_UNDEFINED but can
never fabricate one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.core.config import DEFAULT_OPTIONS, CheckerOptions
from repro.core.plans import IntTypeFacts, int_binary_facts, int_type_facts
from repro.errors import UBKind
from repro.symbolic.domain import (
    AbstractInt,
    ConstraintStore,
    Interval,
    PossibleUB,
    abstract_binary,
    abstract_bool,
    abstract_complement,
    abstract_convert,
    abstract_negate,
)

#: Loop iterations executed precisely before switching to widening.
MAX_UNROLL = 256
#: Widening iterations before giving up on a fixpoint.
MAX_WIDEN = 64
#: Abstract evaluation steps (statements + expressions) before bailing.
MAX_STEPS = 400_000
#: Call depth (helpers calling helpers) before bailing.
MAX_CALL_DEPTH = 24

_COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")
_NEGATED_COMPARE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
_INCDEC_OPS = ("++pre", "--pre", "++post", "--post")


class AbstractBail(Exception):
    """The program left the modeled subset; the analysis is inconclusive."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class _Stuck(Exception):
    """No concretization of the current abstract path continues past here.

    ``ub`` carries the proving certain UB when the path was definite;
    None when the stop is only the death of an over-approximated path.
    """

    def __init__(self, ub: Optional[PossibleUB]) -> None:
        self.ub = ub
        super().__init__(ub.kind.name if ub else "dead abstract path")


# ---------------------------------------------------------------------------
# Cells (immutable-style: writes replace the cell, keeping its uid)
# ---------------------------------------------------------------------------

_uids = itertools.count(1)

#: initialization state of a cell: definitely / definitely-not / on-some-paths
_INIT_YES, _INIT_NO, _INIT_MAYBE = "yes", "no", "maybe"


@dataclass(frozen=True)
class _IntCell:
    uid: int
    ctype: ct.CType
    value: Optional[AbstractInt]
    init: str
    const: bool = False


@dataclass(frozen=True)
class _ArrCell:
    uid: int
    element: ct.CType
    values: tuple
    inits: tuple
    const: bool = False

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class _PtrCell:
    uid: int
    pointee: ct.CType
    #: ("int", uid) | ("elem", uid, lo, hi) | ("fn", name)
    targets: tuple
    null: str  # "yes" | "no" | "maybe"
    init: str = _INIT_YES
    const: bool = False


@dataclass(frozen=True)
class _PtrVal:
    """A pointer rvalue (same shape as the cell, without identity)."""

    pointee: Optional[ct.CType]
    targets: tuple
    null: str


@dataclass(frozen=True)
class _Opaque:
    """A value we cannot model (e.g. printf's return); bails when *used*."""

    reason: str


_Value = Union[AbstractInt, _PtrVal, _Opaque]


def _merge_init(a: str, b: str) -> str:
    return a if a == b else _INIT_MAYBE


def _join_opt(a: Optional[AbstractInt], b: Optional[AbstractInt]) -> Optional[
    AbstractInt
]:
    if a is None:
        return b
    if b is None:
        return a
    return a.join(b)


# ---------------------------------------------------------------------------
# The abstract environment
# ---------------------------------------------------------------------------

class _AbsEnv:
    """Scoped bindings plus the relational store.

    ``barriers[i]`` marks scope ``i`` as a function-frame boundary: name
    lookup does not cross it downward (except into the global scope 0),
    which is how helper calls reuse one environment object.
    """

    __slots__ = ("scopes", "barriers", "store")

    def __init__(self) -> None:
        self.scopes: list[dict] = [{}]
        self.barriers: list[bool] = [False]
        self.store = ConstraintStore()

    def copy(self) -> "_AbsEnv":
        dup = _AbsEnv.__new__(_AbsEnv)
        dup.scopes = [dict(scope) for scope in self.scopes]
        dup.barriers = list(self.barriers)
        dup.store = self.store.copy()
        return dup

    def push(self, barrier: bool = False) -> None:
        self.scopes.append({})
        self.barriers.append(barrier)

    def pop(self) -> None:
        for cell in self.scopes[-1].values():
            self.store.forget(cell.uid)
        del self.scopes[-1]
        del self.barriers[-1]

    def _visible_range(self):
        for index in range(len(self.scopes) - 1, -1, -1):
            yield index
            if self.barriers[index]:
                break
        else:
            return
        if len(self.scopes) > 0:
            yield 0

    def lookup(self, name: str):
        for index in self._visible_range():
            cell = self.scopes[index].get(name)
            if cell is not None:
                return cell
        return None

    def bind(self, name: str, cell) -> None:
        self.scopes[-1][name] = cell

    def replace(self, uid: int, cell) -> None:
        """Replace the cell with this uid, wherever it is bound."""
        for scope in reversed(self.scopes):
            for name, existing in scope.items():
                if existing.uid == uid:
                    scope[name] = cell
                    self.store.forget(uid)
                    return
        raise KeyError(uid)

    def by_uid(self, uid: int):
        for scope in reversed(self.scopes):
            for cell in scope.values():
                if cell.uid == uid:
                    return cell
        return None

    def join(self, other: "_AbsEnv") -> "_AbsEnv":
        """Merge-point join: cell-wise, over identical scope structure."""
        if len(self.scopes) != len(other.scopes):
            raise AbstractBail("abstract join over mismatched scopes")
        joined = _AbsEnv.__new__(_AbsEnv)
        joined.barriers = list(self.barriers)
        joined.scopes = []
        for mine, theirs in zip(self.scopes, other.scopes):
            scope = {}
            for name, cell in mine.items():
                other_cell = theirs.get(name)
                if other_cell is None:
                    continue
                scope[name] = _join_cell(cell, other_cell)
            joined.scopes.append(scope)
        joined.store = self.store.join(other.store)
        return joined


def _join_cell(a, b):
    if type(a) is not type(b) or a.uid != b.uid:
        raise AbstractBail("abstract join over mismatched cells")
    if isinstance(a, _IntCell):
        return _IntCell(
            a.uid,
            a.ctype,
            _join_opt(a.value, b.value),
            _merge_init(a.init, b.init),
            a.const,
        )
    if isinstance(a, _ArrCell):
        values = tuple(_join_opt(va, vb) for va, vb in zip(a.values, b.values))
        inits = tuple(_merge_init(ia, ib) for ia, ib in zip(a.inits, b.inits))
        return _ArrCell(a.uid, a.element, values, inits, a.const)
    if isinstance(a, _PtrCell):
        targets = a.targets + tuple(t for t in b.targets if t not in a.targets)
        null = _merge_init(a.null, b.null) if a.null != b.null else a.null
        if a.null != b.null:
            null = _INIT_MAYBE
        return _PtrCell(
            a.uid, a.pointee, targets, null, _merge_init(a.init, b.init), a.const
        )
    raise AbstractBail(f"abstract join over {type(a).__name__}")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class AbsResult:
    """What one abstract execution of a translation unit established."""

    status: str                       # "completed" | "stuck" | "bail"
    certain: Optional[PossibleUB] = None
    possible: list[PossibleUB] = field(default_factory=list)
    widened: bool = False
    bail_reason: str = ""
    exit_value: Optional[AbstractInt] = None
    steps: int = 0


# ---------------------------------------------------------------------------
# Side-effect / sequencing hazard scan
# ---------------------------------------------------------------------------

def _effect_nodes(expr: c_ast.Node) -> list:
    return [
        node
        for node in c_ast.walk(expr)
        if isinstance(node, c_ast.Assignment)
        or (isinstance(node, c_ast.UnaryOp) and node.op in _INCDEC_OPS)
        or isinstance(node, c_ast.Call)
    ]


def _reads_of(expr: c_ast.Node, name: str, *, excluding=None) -> int:
    count = 0
    for node in c_ast.walk(expr):
        if excluding is not None and node is excluding:
            # walk() is preorder; prune by skipping the subtree via a
            # recount of its own reads subtracted afterwards.
            continue
        if isinstance(node, c_ast.Identifier) and node.name == name:
            count += 1
    if excluding is not None:
        for node in c_ast.walk(excluding):
            if isinstance(node, c_ast.Identifier) and node.name == name:
                count -= 1
    return count


def _sequencing_hazard(expr: c_ast.Expression) -> bool:
    """Conservative: could the concrete checker flag this full expression
    for unsequenced side effects (or does it interleave effects in a way
    the single-order abstract walk cannot claim to cover)?"""
    effects = _effect_nodes(expr)
    calls = [e for e in effects if isinstance(e, c_ast.Call)]
    mutations = [e for e in effects if not isinstance(e, c_ast.Call)]
    if len(mutations) >= 2:
        return True
    # Effects under a conditionally evaluated operand are out: the
    # abstract walk evaluates both arms valuelessly.
    for node in c_ast.walk(expr):
        if isinstance(node, c_ast.BinaryOp) and node.op in ("&&", "||"):
            if _effect_nodes(node.right):
                return True
        if isinstance(node, c_ast.Conditional):
            if _effect_nodes(node.then) or _effect_nodes(node.otherwise):
                return True
    if len(mutations) == 1:
        effect = mutations[0]
        if calls:
            return True
        if isinstance(effect, c_ast.Assignment):
            target = effect.target
            if isinstance(target, c_ast.Identifier):
                # Reads of the target outside the assignment are unsequenced
                # with the write (`x + (x = 3)`); inside its own value
                # operand they are fine (`x = x + 1`).
                return _reads_of(expr, target.name, excluding=effect) > 0
            # Array element / deref target: require the assignment to be
            # the whole expression.
            return effect is not expr
        operand = effect.operand
        if isinstance(operand, c_ast.Identifier):
            return _reads_of(expr, operand.name, excluding=effect) > 0
        return effect is not expr
    return False


def _subexpr_has_effects(expr: Optional[c_ast.Expression]) -> bool:
    return expr is not None and bool(_effect_nodes(expr))


# ---------------------------------------------------------------------------
# The evaluator
# ---------------------------------------------------------------------------

class AbstractEvaluator:
    """Abstract execution of one translation unit under input ranges."""

    def __init__(
        self,
        unit: c_ast.TranslationUnit,
        options: CheckerOptions = DEFAULT_OPTIONS,
        inputs: Optional[dict[str, tuple[int, int]]] = None,
    ) -> None:
        self.unit = unit
        self.options = options
        self.profile = options.profile
        self.inputs = dict(inputs or {})
        self.functions = unit.functions()
        self.possible: list[PossibleUB] = []
        self.widened = False
        self.steps = 0
        self._soft = 0          # >0: certainty downgraded (approximate context)
        self._call_stack: list[str] = []
        self._bound_inputs: set[str] = set()

    # -- plumbing ----------------------------------------------------------
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise AbstractBail("abstract step budget exhausted")

    def _facts(self, ctype: ct.CType) -> IntTypeFacts:
        facts = int_type_facts(ctype, self.profile)
        if facts is None:
            raise AbstractBail(f"unmodeled scalar type {ctype}")
        return facts

    def _promoted_facts(self, ctype: ct.CType) -> IntTypeFacts:
        return self._facts(ct.promote_integer(ctype.unqualified(), self.profile))

    def _ub(self, ub: PossibleUB) -> None:
        """Record one UB finding; raise when it definitely stops the run."""
        if ub.certain and self._soft == 0:
            raise _Stuck(ub)
        self.possible.append(
            ub
            if not ub.certain
            else PossibleUB(
                ub.kind, ub.message, ub.line, certain=False, witness=ub.witness
            )
        )
        if ub.certain:
            raise _Stuck(None)

    def _consume(self, ubs: list[PossibleUB]) -> None:
        for ub in ubs:
            if ub.certain and self._soft == 0:
                raise _Stuck(ub)
            self.possible.append(
                ub
                if not ub.certain
                else PossibleUB(
                    ub.kind, ub.message, ub.line, certain=False, witness=ub.witness
                )
            )
        for ub in ubs:
            if ub.certain:
                raise _Stuck(None)

    def _require_int(self, value: _Value, what: str) -> AbstractInt:
        if isinstance(value, AbstractInt):
            return value
        if isinstance(value, _Opaque):
            raise AbstractBail(f"{what}: {value.reason}")
        raise AbstractBail(f"{what}: pointer value where an integer is modeled")

    # -- entry point -------------------------------------------------------
    def run(self) -> AbsResult:
        try:
            env = _AbsEnv()
            self._exec_globals(env)
            main = self.functions.get("main")
            if main is None or main.body is None:
                raise AbstractBail("no main function")
            missing = set(self.inputs) - self._main_decl_names(main)
            if missing:
                raise AbstractBail(
                    f"input(s) {sorted(missing)} are not int declarations " f"in main"
                )
            flows = self._call(main, [], env, main.line)
            exit_value = flows.get("return")
            if exit_value is not None and not isinstance(exit_value, AbstractInt):
                exit_value = None
            if exit_value is None and "normal" in (flows or {}):
                exit_value = AbstractInt.constant(0, ct.INT)
            unbound = set(self.inputs) - self._bound_inputs
            if unbound:
                raise AbstractBail(
                    f"input(s) {sorted(unbound)} were never declared on the "
                    f"executed path"
                )
            return AbsResult(
                status="completed",
                possible=self.possible,
                widened=self.widened,
                exit_value=exit_value,
                steps=self.steps,
            )
        except _Stuck as stuck:
            return AbsResult(
                status="stuck",
                certain=stuck.ub,
                possible=self.possible,
                widened=self.widened,
                steps=self.steps,
            )
        except AbstractBail as bail:
            return AbsResult(
                status="bail",
                bail_reason=bail.reason,
                possible=self.possible,
                widened=self.widened,
                steps=self.steps,
            )

    def _main_decl_names(self, main: c_ast.FunctionDef) -> set[str]:
        names = set()
        for node in c_ast.walk(main.body):
            if isinstance(node, c_ast.Declaration) and isinstance(
                node.type, (ct.IntType,)
            ):
                names.add(node.name)
        return names

    def _exec_globals(self, env: _AbsEnv) -> None:
        for decl in self.unit.globals():
            if decl.storage == "typedef" or not decl.is_definition:
                continue
            self._declare(decl, env, is_global=True)

    # -- function calls ----------------------------------------------------
    def _call(
        self, fndef: c_ast.FunctionDef, args: list[_Value], env: _AbsEnv, line: int
    ) -> dict:
        if fndef.name in self._call_stack:
            raise AbstractBail(f"recursive call to {fndef.name}()")
        if len(self._call_stack) >= MAX_CALL_DEPTH:
            raise AbstractBail("call depth limit")
        ftype = fndef.type
        assert isinstance(ftype, ct.FunctionType)
        if len(args) != len(ftype.parameters):
            raise AbstractBail(f"call to {fndef.name}() with {len(args)} argument(s)")
        env.push(barrier=True)
        self._call_stack.append(fndef.name)
        try:
            for name, ptype, value in zip(
                fndef.parameter_names, ftype.parameters, args
            ):
                facts = self._facts(ptype)
                converted = abstract_convert(
                    facts, self._require_int(value, f"argument {name}")
                )
                env.bind(name, _IntCell(next(_uids), facts.type, converted, _INIT_YES))
            flows = self._exec_block(fndef.body.items, env)
        finally:
            self._call_stack.pop()
        if "break" in flows or "continue" in flows:
            raise AbstractBail("break/continue escaping a function body")
        # Pop the frame scope from every surviving flow env; they all alias
        # chains rooted at `env`, and _exec_block returns envs whose scope
        # stack still carries the frame.
        result: dict = {}
        if "normal" in flows:
            flows["normal"].pop()
            if fndef.name != "main":
                # Value of a call to a function that fell off the end: the
                # subset requires helpers to return on every path.
                raise AbstractBail(
                    f"{fndef.name}() may finish without returning a value"
                )
            result["normal"] = flows["normal"]
        if "return" in flows:
            ret_env, ret_value = flows["return"]
            ret_env.pop()
            if isinstance(ftype.return_type, ct.VoidType):
                result["return"] = None
            else:
                facts = self._facts(ftype.return_type)
                if ret_value is None:
                    raise AbstractBail(f"{fndef.name}() returns without a value")
                result["return"] = abstract_convert(
                    facts, self._require_int(ret_value, "return value")
                )
            result["return_env"] = ret_env
        return result

    # -- statements --------------------------------------------------------
    def _exec_block(self, items: list, env: _AbsEnv) -> dict:
        """Execute a statement list; returns flow -> env (plus return value).

        Flows: "normal" -> env, "break"/"continue" -> env,
        "return" -> (env, value or None).  At most one entry per flow kind
        (same-kind flows are joined).
        """
        outgoing: dict = {}
        current: Optional[_AbsEnv] = env
        for item in items:
            if current is None:
                break
            flows = self._exec_stmt(item, current)
            current = flows.pop("normal", None)
            _merge_flows(outgoing, flows)
        if current is not None:
            outgoing["normal"] = (
                _join_flow_env(outgoing.get("normal"), current)
                if "normal" in outgoing
                else current
            )
        return outgoing

    def _exec_stmt(self, stmt, env: _AbsEnv) -> dict:
        self._tick()
        if isinstance(stmt, c_ast.Declaration):
            self._declare(stmt, env, is_global=False)
            return {"normal": env}
        if isinstance(stmt, c_ast.ExpressionStmt):
            if stmt.expression is not None:
                self._eval_full(stmt.expression, env)
            return {"normal": env}
        if isinstance(stmt, c_ast.Compound):
            env.push()
            flows = self._exec_block(stmt.items, env)
            for key, entry in flows.items():
                (entry[0] if key == "return" else entry).pop()
            return flows
        if isinstance(stmt, c_ast.If):
            return self._exec_if(stmt, env)
        if isinstance(stmt, c_ast.Return):
            value = (
                self._eval_full(stmt.value, env) if stmt.value is not None else None
            )
            return {"return": (env, value)}
        if isinstance(stmt, c_ast.Break):
            return {"break": env}
        if isinstance(stmt, c_ast.Continue):
            return {"continue": env}
        if isinstance(stmt, c_ast.For):
            return self._exec_for(stmt, env)
        if isinstance(stmt, c_ast.While):
            loop = c_ast.For(
                line=stmt.line,
                init=None,
                condition=stmt.condition,
                step=None,
                body=stmt.body,
            )
            return self._exec_for(loop, env)
        if isinstance(stmt, c_ast.DoWhile):
            first = self._exec_loop_body(stmt.body, None, env)
            flows: dict = {}
            broke = first.pop("break", None)
            if broke is not None:
                flows["normal"] = broke
            _merge_flows(flows, {k: v for k, v in first.items() if k == "return"})
            cont = first.get("normal")
            if cont is not None:
                loop = c_ast.For(
                    line=stmt.line,
                    init=None,
                    condition=stmt.condition,
                    step=None,
                    body=stmt.body,
                )
                again = self._exec_for(loop, cont)
                _merge_flows(flows, again)
                normal = again.get("normal")
                if normal is not None:
                    flows["normal"] = (
                        _join_flow_env(flows.get("normal"), normal)
                        if "normal" in flows
                        else normal
                    )
            return flows
        raise AbstractBail(f"unmodeled statement {type(stmt).__name__}")

    def _exec_if(self, stmt: c_ast.If, env: _AbsEnv) -> dict:
        truths = self._branch_condition(stmt.condition, env)
        branch_flows: list[dict] = []
        stucks: list[PossibleUB] = []
        live = 0
        for truth, branch_env in truths:
            live += 1
            body = stmt.then if truth else stmt.otherwise
            soft = len(truths) > 1
            try:
                if soft:
                    self._soft += 1
                try:
                    if body is None:
                        branch_flows.append({"normal": branch_env})
                    else:
                        branch_flows.append(self._exec_stmt(body, branch_env))
                finally:
                    if soft:
                        self._soft -= 1
            except _Stuck as stuck:
                if stuck.ub is not None:
                    stucks.append(stuck.ub)
        if not branch_flows:
            # Every branch died.  Certainty was already recorded/downgraded
            # by _ub under soft mode; a single definite branch re-raises.
            raise _Stuck(stucks[0] if len(stucks) == 1 and len(truths) == 1 else None)
        merged: dict = {}
        for flows in branch_flows:
            _merge_flows(merged, {k: v for k, v in flows.items() if k != "normal"})
            normal = flows.get("normal")
            if normal is not None:
                merged["normal"] = (
                    _join_flow_env(merged.get("normal"), normal)
                    if "normal" in merged
                    else normal
                )
        return merged

    def _exec_loop_body(
        self, body, step: Optional[c_ast.Expression], env: _AbsEnv
    ) -> dict:
        flows = self._exec_stmt(body, env) if body is not None else {"normal": env}
        # continue re-joins the normal path before the step expression.
        cont = flows.pop("continue", None)
        normal = flows.get("normal")
        if cont is not None:
            normal = _join_flow_env(normal, cont) if normal is not None else cont
        if normal is not None and step is not None:
            self._eval_full(step, normal)
        if normal is not None:
            flows["normal"] = normal
        elif "normal" in flows:
            del flows["normal"]
        return flows

    def _exec_for(self, stmt: c_ast.For, env: _AbsEnv) -> dict:
        env.push()
        init = stmt.init
        if isinstance(init, list):
            for decl in init:
                self._declare(decl, env, is_global=False)
        elif isinstance(init, c_ast.Declaration):
            self._declare(init, env, is_global=False)
        elif init is not None:
            self._eval_full(init, env)

        outgoing: dict = {}
        exit_envs: list[_AbsEnv] = []
        current: Optional[_AbsEnv] = env
        unrolled = 0
        while current is not None and unrolled < MAX_UNROLL:
            unrolled += 1
            truths = (
                self._branch_condition(stmt.condition, current)
                if stmt.condition is not None
                else [(True, current)]
            )
            take: Optional[_AbsEnv] = None
            for truth, branch_env in truths:
                if truth:
                    take = branch_env
                else:
                    exit_envs.append(branch_env)
            if take is None:
                current = None
                break
            soft = len(truths) > 1
            try:
                if soft:
                    self._soft += 1
                try:
                    flows = self._exec_loop_body(stmt.body, stmt.step, take)
                finally:
                    if soft:
                        self._soft -= 1
            except _Stuck as stuck:
                if stuck.ub is not None and len(truths) == 1:
                    raise
                current = None
                break
            broke = flows.pop("break", None)
            if broke is not None:
                exit_envs.append(broke)
            _merge_flows(outgoing, {k: v for k, v in flows.items() if k == "return"})
            current = flows.get("normal")
        if current is not None:
            # Ran out of unrolling budget: widen to a fixpoint.
            exit_env, extra = self._widen_loop(stmt, current)
            _merge_flows(outgoing, extra)
            if exit_env is not None:
                exit_envs.append(exit_env)
        normal: Optional[_AbsEnv] = None
        for exit_env in exit_envs:
            normal = exit_env if normal is None else _join_flow_env(normal, exit_env)
        for key, entry in list(outgoing.items()):
            (entry[0] if key == "return" else entry).pop()
        if normal is not None:
            normal.pop()
            outgoing["normal"] = normal
        return outgoing

    def _widen_loop(self, stmt: c_ast.For, env: _AbsEnv,) -> tuple[
        Optional[_AbsEnv], dict
    ]:
        """Widening fixpoint over the loop head; everything inside is soft."""
        self.widened = True
        outgoing: dict = {}
        head = env
        self._soft += 1
        try:
            for _ in range(MAX_WIDEN):
                body_env = head.copy()
                truths = (
                    self._branch_condition(stmt.condition, body_env)
                    if stmt.condition is not None
                    else [(True, body_env)]
                )
                take = None
                for truth, branch_env in truths:
                    if truth:
                        take = branch_env
                after: Optional[_AbsEnv] = None
                if take is not None:
                    try:
                        flows = self._exec_loop_body(stmt.body, stmt.step, take)
                    except _Stuck:
                        flows = {}
                    broke = flows.get("break")
                    if broke is not None:
                        # Break exits fold into the head for simplicity: the
                        # exit join below over-approximates them.
                        pass
                    _merge_flows(
                        outgoing, {k: v for k, v in flows.items() if k == "return"}
                    )
                    after = flows.get("normal")
                    if broke is not None:
                        after = (
                            _join_flow_env(after, broke) if after is not None else broke
                        )
                if after is None:
                    break
                new_head = _widen_env(head, head.join(after), self)
                if _env_equal(new_head, head):
                    head = new_head
                    break
                head = new_head
            else:
                raise AbstractBail("loop widening did not converge")
        finally:
            self._soft -= 1
        # The exit environment: the stable head (condition refinement on
        # exit is sound but unnecessary for the verdict — widening already
        # made the result inconclusive for definedness).
        return head, outgoing

    # -- conditions --------------------------------------------------------
    def _branch_condition(self, cond: c_ast.Expression, env: _AbsEnv,) -> list[
        tuple[bool, _AbsEnv]
    ]:
        """[(truth, env)] — two entries (with refined copies) when indefinite."""
        value = self._eval_full(cond, env)
        may_true, may_false = self._truth(value)
        refinable = not _subexpr_has_effects(cond)
        if may_true and not may_false:
            return [(True, env)]
        if may_false and not may_true:
            return [(False, env)]
        then_env = env.copy()
        else_env = env
        branches: list[tuple[bool, _AbsEnv]] = []
        if not refinable:
            return [(True, then_env), (False, else_env)]
        if self._assume(cond, True, then_env):
            branches.append((True, then_env))
        if self._assume(cond, False, else_env):
            branches.append((False, else_env))
        if not branches:
            raise AbstractBail("contradictory branch refinement")
        return branches

    def _truth(self, value: _Value) -> tuple[bool, bool]:
        if isinstance(value, AbstractInt):
            if not value.contains(0):
                return True, False
            if value.is_constant:
                return False, True
            return True, True
        if isinstance(value, _PtrVal):
            if value.null == "yes" and not value.targets:
                return False, True
            if value.null == "no":
                return True, False
            return True, True
        raise AbstractBail(f"unmodeled condition value: {value.reason}")

    def _assume(self, cond: c_ast.Expression, truth: bool, env: _AbsEnv) -> bool:
        """Refine ``env`` with ``cond == truth``; False if contradictory."""
        if isinstance(cond, c_ast.UnaryOp) and cond.op == "!":
            return self._assume(cond.operand, not truth, env)
        if isinstance(cond, c_ast.Identifier):
            return self._refine_var_vs_const(cond.name, "!=" if truth else "==", 0, env)
        if isinstance(cond, c_ast.BinaryOp) and cond.op in _COMPARE_OPS:
            op = cond.op if truth else _NEGATED_COMPARE[cond.op]
            left_var = self._refinable_var(cond.left, env)
            right_var = self._refinable_var(cond.right, env)
            left_const = self._try_constant(cond.left, env)
            right_const = self._try_constant(cond.right, env)
            if left_var is not None and right_const is not None:
                return self._refine_var_vs_const(left_var, op, right_const, env)
            if right_var is not None and left_const is not None:
                return self._refine_var_vs_const(
                    right_var, _flip_compare(op), left_const, env
                )
            if left_var is not None and right_var is not None:
                left_cell = env.lookup(left_var)
                right_cell = env.lookup(right_var)
                env.store.assume_compare(op, left_cell.uid, right_cell.uid, True)
                return self._refine_var_vs_var(left_cell, op, right_cell, env)
        return True

    def _refinable_var(self, expr, env: _AbsEnv) -> Optional[str]:
        if isinstance(expr, c_ast.Identifier):
            cell = env.lookup(expr.name)
            if isinstance(cell, _IntCell) and cell.value is not None:
                return expr.name
        return None

    def _try_constant(self, expr, env: _AbsEnv) -> Optional[int]:
        if _subexpr_has_effects(expr):
            return None
        self._soft += 1
        saved = len(self.possible)
        try:
            value = self._eval(expr, env)
        except (_Stuck, AbstractBail):
            del self.possible[saved:]
            return None
        finally:
            self._soft -= 1
        del self.possible[saved:]
        if isinstance(value, AbstractInt) and value.is_constant:
            return value.value
        return None

    def _refine_var_vs_const(
        self, name: str, op: str, constant: int, env: _AbsEnv
    ) -> bool:
        cell = env.lookup(name)
        if not isinstance(cell, _IntCell) or cell.value is None:
            return True
        value = cell.value
        refined: Optional[AbstractInt]
        if op == "<":
            refined = value.meet_range(value.lo, constant - 1)
        elif op == "<=":
            refined = value.meet_range(value.lo, constant)
        elif op == ">":
            refined = value.meet_range(constant + 1, value.hi)
        elif op == ">=":
            refined = value.meet_range(constant, value.hi)
        elif op == "==":
            refined = (
                AbstractInt.constant(constant, value.type)
                if value.contains(constant)
                else None
            )
        else:  # "!="
            if value.is_constant:
                refined = None if value.value == constant else value
            elif constant == value.lo:
                refined = value.meet_range(value.lo + 1, value.hi)
            elif constant == value.hi:
                refined = value.meet_range(value.lo, value.hi - 1)
            else:
                refined = value
        if refined is None:
            return False
        env.replace(
            cell.uid, _IntCell(cell.uid, cell.ctype, refined, cell.init, cell.const)
        )
        return True

    def _refine_var_vs_var(
        self, left: _IntCell, op: str, right: _IntCell, env: _AbsEnv
    ) -> bool:
        lv, rv = left.value, right.value
        if lv is None or rv is None:
            return True
        new_l: Optional[AbstractInt] = lv
        new_r: Optional[AbstractInt] = rv
        if op == "<":
            new_l = lv.meet_range(lv.lo, rv.hi - 1)
            new_r = rv.meet_range(lv.lo + 1, rv.hi)
        elif op == "<=":
            new_l = lv.meet_range(lv.lo, rv.hi)
            new_r = rv.meet_range(lv.lo, rv.hi)
        elif op == ">":
            new_l = lv.meet_range(rv.lo + 1, lv.hi)
            new_r = rv.meet_range(rv.lo, lv.hi - 1)
        elif op == ">=":
            new_l = lv.meet_range(rv.lo, lv.hi)
            new_r = rv.meet_range(rv.lo, lv.hi)
        elif op == "==":
            new_l = lv.meet_range(max(lv.lo, rv.lo), min(lv.hi, rv.hi))
            new_r = rv.meet_range(max(lv.lo, rv.lo), min(lv.hi, rv.hi))
        if new_l is None or new_r is None:
            return False
        env.replace(
            left.uid, _IntCell(left.uid, left.ctype, new_l, left.init, left.const)
        )
        env.replace(
            right.uid, _IntCell(right.uid, right.ctype, new_r, right.init, right.const)
        )
        return True

    # -- declarations ------------------------------------------------------
    def _declare(
        self, decl: c_ast.Declaration, env: _AbsEnv, *, is_global: bool
    ) -> None:
        self._tick()
        if decl.storage not in (None, "auto", "register") and not is_global:
            raise AbstractBail(f"{decl.storage} local declaration")
        if is_global and decl.storage not in (None, "static"):
            raise AbstractBail(f"{decl.storage} global declaration")
        dtype = decl.type
        if isinstance(dtype, ct.IntType):
            self._declare_int(decl, dtype, env, is_global=is_global)
            return
        if isinstance(dtype, ct.ArrayType) and isinstance(dtype.element, ct.IntType):
            self._declare_array(decl, dtype, env, is_global=is_global)
            return
        if isinstance(dtype, ct.PointerType):
            self._declare_pointer(decl, dtype, env)
            return
        raise AbstractBail(f"unmodeled declaration type {dtype}")

    def _declare_int(
        self,
        decl: c_ast.Declaration,
        dtype: ct.IntType,
        env: _AbsEnv,
        *,
        is_global: bool,
    ) -> None:
        facts = self._facts(dtype)
        const = dtype.const
        if not is_global and decl.name in self.inputs:
            lo, hi = self.inputs[decl.name]
            if not (facts.lo <= lo <= hi <= facts.hi):
                raise AbstractBail(
                    f"input range [{lo}, {hi}] does not fit {facts.type}"
                )
            self._bound_inputs.add(decl.name)
            env.bind(
                decl.name,
                _IntCell(
                    next(_uids),
                    facts.type,
                    AbstractInt(lo, hi, facts.type),
                    _INIT_YES,
                    const,
                ),
            )
            return
        if decl.initializer is None:
            if is_global:
                env.bind(
                    decl.name,
                    _IntCell(
                        next(_uids),
                        facts.type,
                        AbstractInt.constant(0, facts.type),
                        _INIT_YES,
                        const,
                    ),
                )
            else:
                env.bind(
                    decl.name, _IntCell(next(_uids), facts.type, None, _INIT_NO, const)
                )
            return
        init = decl.initializer
        if isinstance(init, c_ast.InitList):
            if len(init.items) != 1:
                raise AbstractBail("scalar initializer list")
            init = init.items[0]
        value = abstract_convert(
            facts,
            self._require_int(
                self._eval_full(init, env), f"initializer of {decl.name}"
            ),
        )
        cell = _IntCell(next(_uids), facts.type, value, _INIT_YES, const)
        env.bind(decl.name, cell)
        self._record_decl_relation(init, cell, env)

    def _record_decl_relation(self, init, cell: _IntCell, env: _AbsEnv) -> None:
        """`int y = x + c;` (no wrap possible) relates y - x == c."""
        base, delta = None, None
        if isinstance(init, c_ast.Identifier):
            base, delta = init.name, 0
        elif (
            isinstance(init, c_ast.BinaryOp)
            and init.op in ("+", "-")
            and isinstance(init.left, c_ast.Identifier)
            and isinstance(init.right, c_ast.IntegerLiteral)
        ):
            base = init.left.name
            delta = init.right.value if init.op == "+" else -init.right.value
        if base is None:
            return
        source = env.lookup(base)
        if not (
            isinstance(source, _IntCell)
            and source.value is not None
            and source.ctype == cell.ctype
            and cell.value is not None
        ):
            return
        facts = self._facts(cell.ctype)
        if (
            facts.lo <= source.value.lo + delta and source.value.hi + delta <= facts.hi
        ):
            env.store.relate(source.uid, cell.uid, delta, delta)

    def _declare_array(
        self,
        decl: c_ast.Declaration,
        dtype: ct.ArrayType,
        env: _AbsEnv,
        *,
        is_global: bool,
    ) -> None:
        facts = self._facts(dtype.element)
        items = []
        if decl.initializer is not None:
            if not isinstance(decl.initializer, c_ast.InitList):
                raise AbstractBail("array initialized from a non-list")
            items = decl.initializer.items
        length = dtype.length if dtype.length is not None else len(items)
        if length is None or length <= 0 or length > 4096:
            raise AbstractBail(f"unmodeled array length {length}")
        if len(items) > length:
            raise AbstractBail("excess array initializers")
        values: list[Optional[AbstractInt]] = []
        inits: list[str] = []
        for item in items:
            values.append(
                abstract_convert(
                    facts,
                    self._require_int(self._eval_full(item, env), "array initializer"),
                )
            )
            inits.append(_INIT_YES)
        default_init = _INIT_YES if (items or is_global) else _INIT_NO
        default_value = (
            AbstractInt.constant(0, facts.type) if default_init == _INIT_YES else None
        )
        while len(values) < length:
            values.append(default_value)
            inits.append(default_init)
        env.bind(
            decl.name,
            _ArrCell(
                next(_uids),
                facts.type,
                tuple(values),
                tuple(inits),
                dtype.const or dtype.element.const,
            ),
        )

    def _declare_pointer(
        self, decl: c_ast.Declaration, dtype: ct.PointerType, env: _AbsEnv
    ) -> None:
        pointee = dtype.pointee
        if not isinstance(pointee, (ct.IntType, ct.FunctionType)):
            raise AbstractBail(f"unmodeled pointer type {dtype}")
        if decl.initializer is None:
            env.bind(
                decl.name,
                _PtrCell(next(_uids), pointee, (), "maybe", _INIT_NO, dtype.const),
            )
            return
        value = self._eval_full(decl.initializer, env)
        ptr = self._as_pointer(value, pointee, decl.line)
        env.bind(
            decl.name,
            _PtrCell(
                next(_uids), pointee, ptr.targets, ptr.null, _INIT_YES, dtype.const
            ),
        )

    def _as_pointer(self, value: _Value, pointee: ct.CType, line: int) -> _PtrVal:
        if isinstance(value, _PtrVal):
            if value.pointee is not None:
                is_function = isinstance(pointee, ct.FunctionType)
                was_function = isinstance(value.pointee, ct.FunctionType)
                if is_function != was_function:
                    raise AbstractBail("mixed object/function pointer")
                if not ct.types_compatible(
                    value.pointee.unqualified(), pointee.unqualified()
                ):
                    raise AbstractBail(
                        f"pointer conversion {value.pointee} -> {pointee}"
                    )
            return value
        if isinstance(value, AbstractInt):
            if value.is_constant and value.value == 0:
                return _PtrVal(pointee, (), "yes")
            raise AbstractBail("integer-to-pointer conversion")
        raise AbstractBail(f"unmodeled pointer source: {value}")

    # -- expressions -------------------------------------------------------
    def _eval_full(self, expr: c_ast.Expression, env: _AbsEnv) -> _Value:
        """Evaluate a full expression (statement/condition/initializer)."""
        if _sequencing_hazard(expr):
            raise AbstractBail("expression with potentially unsequenced side effects")
        return self._eval(expr, env)

    def _eval(self, expr: c_ast.Expression, env: _AbsEnv) -> _Value:
        self._tick()
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise AbstractBail(f"unmodeled expression {type(expr).__name__}")
        return method(expr, env)

    def _eval_IntegerLiteral(self, expr: c_ast.IntegerLiteral, env: _AbsEnv) -> _Value:
        ctype = expr.type if expr.type is not None else ct.INT
        if not isinstance(ctype, ct.IntType):
            raise AbstractBail(f"literal of type {ctype}")
        return AbstractInt.constant(expr.value, ctype.unqualified())

    def _eval_CharLiteral(self, expr: c_ast.CharLiteral, env: _AbsEnv) -> _Value:
        return AbstractInt.constant(expr.value, ct.INT)

    def _eval_Identifier(self, expr: c_ast.Identifier, env: _AbsEnv) -> _Value:
        cell = env.lookup(expr.name)
        if cell is None:
            if expr.name in self.functions:
                return _PtrVal(
                    self.functions[expr.name].type, (("fn", expr.name),), "no"
                )
            raise AbstractBail(f"unknown identifier {expr.name}")
        if isinstance(cell, _IntCell):
            return self._read_int_cell(cell, expr.line)
        if isinstance(cell, _PtrCell):
            if cell.init == _INIT_NO:
                self._uninit(expr.line)
            elif cell.init == _INIT_MAYBE:
                self._uninit(expr.line, certain=False)
            return _PtrVal(cell.pointee, cell.targets, cell.null)
        if isinstance(cell, _ArrCell):
            # Array decay: a pointer covering the whole array.
            return _PtrVal(
                cell.element, (("elem", cell.uid, 0, cell.length - 1),), "no"
            )
        raise AbstractBail(f"unmodeled cell for {expr.name}")

    def _uninit(self, line: int, certain: bool = True) -> None:
        if not self.options.check_uninitialized:
            raise AbstractBail("indeterminate read with uninitialized checks disabled")
        self._ub(
            PossibleUB(
                UBKind.UNINITIALIZED_READ,
                "Use of an indeterminate (uninitialized) value.",
                line,
                certain=certain,
            )
        )

    def _read_int_cell(self, cell: _IntCell, line: int) -> AbstractInt:
        if cell.init == _INIT_NO:
            self._uninit(line)
        elif cell.init == _INIT_MAYBE:
            self._uninit(line, certain=False)
        if cell.value is None:
            raise _Stuck(None)
        return cell.value

    def _eval_UnaryOp(self, expr: c_ast.UnaryOp, env: _AbsEnv) -> _Value:
        op = expr.op
        line = expr.line
        if op == "&":
            return self._address_of(expr.operand, env, line)
        if op == "*":
            ptr = self._eval(expr.operand, env)
            return self._deref_read(ptr, line, env)
        if op in _INCDEC_OPS:
            return self._eval_incdec(expr, env)
        if op in ("sizeof",):
            raise AbstractBail("sizeof expression")
        value = self._eval(expr.operand, env)
        if op == "!":
            may_true, may_false = self._truth(value)
            if may_true and may_false:
                return AbstractInt(0, 1, ct.INT)
            return AbstractInt.constant(0 if may_true else 1, ct.INT)
        operand = self._require_int(value, f"operand of unary {op}")
        facts = self._promoted_facts(operand.type)
        if op == "+":
            return abstract_convert(facts, operand)
        if op == "-":
            result, ubs = abstract_negate(
                facts, self.options.check_arithmetic, operand, line
            )
            self._consume(ubs)
            if result is None:
                raise _Stuck(None)
            return result
        if op == "~":
            return abstract_complement(facts, operand)
        raise AbstractBail(f"unmodeled unary operator {op!r}")

    def _eval_incdec(self, expr: c_ast.UnaryOp, env: _AbsEnv) -> _Value:
        line = expr.line
        lvalue = self._lvalue(expr.operand, env, line)
        old = self._lvalue_read(lvalue, env, line)
        old_int = self._require_int(old, "operand of ++/--")
        op = "+" if expr.op.startswith("++") else "-"
        facts = int_binary_facts(op, old_int.type, ct.INT, self.options, line)
        if facts is None:
            raise AbstractBail("unplanned ++/-- operand type")
        result, ubs = abstract_binary(facts, old_int, AbstractInt.constant(1, ct.INT))
        self._consume(ubs)
        if result is None:
            raise _Stuck(None)
        converted = abstract_convert(self._facts(lvalue_type(lvalue)), result)
        self._lvalue_write(lvalue, converted, env, line)
        return old_int if expr.op.endswith("post") else converted

    def _eval_BinaryOp(self, expr: c_ast.BinaryOp, env: _AbsEnv) -> _Value:
        op = expr.op
        line = expr.line
        if op in ("&&", "||"):
            return self._eval_logical(expr, env)
        left = self._require_int(self._eval(expr.left, env), f"left operand of {op}")
        right = self._require_int(self._eval(expr.right, env), f"right operand of {op}")
        if op in _COMPARE_OPS:
            decided = self._store_compare(expr, op, env)
            if decided is not None:
                return abstract_bool(decided)
        facts = int_binary_facts(op, left.type, right.type, self.options, line)
        if facts is None:
            raise AbstractBail(
                f"unplanned operand types for {op}: " f"{left.type}, {right.type}"
            )
        result, ubs = abstract_binary(facts, left, right)
        self._consume(ubs)
        if result is None:
            raise _Stuck(None)
        return result

    def _store_compare(
        self, expr: c_ast.BinaryOp, op: str, env: _AbsEnv
    ) -> Optional[bool]:
        if not (
            isinstance(expr.left, c_ast.Identifier)
            and isinstance(expr.right, c_ast.Identifier)
        ):
            return None
        left = env.lookup(expr.left.name)
        right = env.lookup(expr.right.name)
        if not (isinstance(left, _IntCell) and isinstance(right, _IntCell)):
            return None
        return env.store.compare(op, left.uid, right.uid)

    def _eval_logical(self, expr: c_ast.BinaryOp, env: _AbsEnv) -> _Value:
        left = self._eval(expr.left, env)
        may_true, may_false = self._truth(left)
        is_and = expr.op == "&&"
        if is_and and not may_true:
            return AbstractInt.constant(0, ct.INT)
        if not is_and and not may_false:
            return AbstractInt.constant(1, ct.INT)
        definite = (may_true and not may_false) if is_and else (
            may_false and not may_true
        )
        self._soft += 0 if definite else 1
        try:
            try:
                right = self._eval(expr.right, env)
                right_true, right_false = self._truth(right)
            except _Stuck:
                if definite:
                    raise
                # Only the short-circuited concretizations survive.
                return AbstractInt.constant(0 if is_and else 1, ct.INT)
        finally:
            self._soft -= 0 if definite else 1
        if is_and:
            result_true = may_true and right_true
            result_false = may_false or right_false
        else:
            result_true = may_true or right_true
            result_false = may_false and right_false
        if result_true and result_false:
            return AbstractInt(0, 1, ct.INT)
        return AbstractInt.constant(1 if result_true else 0, ct.INT)

    def _eval_Conditional(self, expr: c_ast.Conditional, env: _AbsEnv) -> _Value:
        cond = self._eval(expr.condition, env)
        may_true, may_false = self._truth(cond)
        if may_true and not may_false:
            return self._eval(expr.then, env)
        if may_false and not may_true:
            return self._eval(expr.otherwise, env)
        self._soft += 1
        results = []
        try:
            for branch in (expr.then, expr.otherwise):
                try:
                    results.append(self._eval(branch, env))
                except _Stuck:
                    pass
        finally:
            self._soft -= 1
        if not results:
            raise _Stuck(None)
        if len(results) == 1:
            return self._require_int(results[0], "conditional branch")
        a = self._require_int(results[0], "conditional branch")
        b = self._require_int(results[1], "conditional branch")
        if a.type != b.type:
            facts = int_binary_facts("+", a.type, b.type, self.options, expr.line)
            if facts is None:
                raise AbstractBail("conditional branches of mixed types")
            a = abstract_convert(facts.common, a)
            b = abstract_convert(facts.common, b)
        return a.join(b)

    def _eval_Comma(self, expr: c_ast.Comma, env: _AbsEnv) -> _Value:
        self._eval(expr.left, env)
        return self._eval(expr.right, env)

    def _eval_Cast(self, expr: c_ast.Cast, env: _AbsEnv) -> _Value:
        target = expr.target_type
        if isinstance(expr.operand, c_ast.InitList):
            # Compound literal: only the scalar (int){expr} form is modeled.
            if (isinstance(target, ct.IntType) and len(expr.operand.items) == 1):
                value = self._require_int(
                    self._eval(expr.operand.items[0], env), "compound literal"
                )
                return abstract_convert(self._facts(target), value)
            raise AbstractBail("unmodeled compound literal")
        value = self._eval(expr.operand, env)
        if isinstance(target, ct.IntType):
            return abstract_convert(
                self._facts(target), self._require_int(value, "cast operand")
            )
        if isinstance(target, ct.PointerType):
            return self._as_pointer(value, target.pointee, expr.line)
        raise AbstractBail(f"unmodeled cast to {target}")

    def _eval_Assignment(self, expr: c_ast.Assignment, env: _AbsEnv) -> _Value:
        line = expr.line
        lvalue = self._lvalue(expr.target, env, line)
        value = self._eval(expr.value, env)
        if expr.op != "=":
            binop = expr.op[:-1]
            old = self._require_int(
                self._lvalue_read(lvalue, env, line), "compound assignment target"
            )
            rhs = self._require_int(value, "compound assignment value")
            facts = int_binary_facts(binop, old.type, rhs.type, self.options, line)
            if facts is None:
                raise AbstractBail(f"unplanned compound assignment {expr.op}")
            result, ubs = abstract_binary(facts, old, rhs)
            self._consume(ubs)
            if result is None:
                raise _Stuck(None)
            value = result
        target_type = lvalue_type(lvalue)
        if isinstance(target_type, ct.PointerType):
            ptr = self._as_pointer(value, target_type.pointee, line)
            self._lvalue_write(lvalue, ptr, env, line)
            return ptr
        converted = abstract_convert(
            self._facts(target_type), self._require_int(value, "assigned value")
        )
        self._lvalue_write(lvalue, converted, env, line)
        return converted

    def _eval_ArraySubscript(self, expr: c_ast.ArraySubscript, env: _AbsEnv) -> _Value:
        lvalue = self._lvalue(expr, env, expr.line)
        return self._lvalue_read(lvalue, env, expr.line)

    def _eval_Call(self, expr: c_ast.Call, env: _AbsEnv) -> _Value:
        line = expr.line
        target = expr.function
        fndef: Optional[c_ast.FunctionDef] = None
        if isinstance(target, c_ast.UnaryOp) and target.op == "*":
            target = target.operand
        if isinstance(target, c_ast.Identifier):
            name = target.name
            cell = env.lookup(name)
            if cell is None:
                if name == "printf":
                    return self._eval_printf(expr, env)
                if name in self.functions:
                    fndef = self.functions[name]
                else:
                    raise AbstractBail(f"call to unmodeled function {name}()")
            elif isinstance(cell, _PtrCell):
                if cell.init != _INIT_YES:
                    self._uninit(line, certain=cell.init == _INIT_NO)
                if cell.null == "yes" and not cell.targets:
                    self._ub(
                        PossibleUB(
                            UBKind.NULL_DEREFERENCE,
                            "Call through a null function pointer.",
                            line,
                            certain=True,
                        )
                    )
                fn_targets = [t for t in cell.targets if t[0] == "fn"]
                if len(fn_targets) != 1 or len(cell.targets) != 1:
                    raise AbstractBail("call through an imprecise pointer")
                if cell.null == "maybe":
                    self._ub(
                        PossibleUB(
                            UBKind.NULL_DEREFERENCE,
                            "Call through a possibly null function pointer.",
                            line,
                            certain=False,
                        )
                    )
                callee = fn_targets[0][1]
                fndef = self.functions.get(callee)
                if fndef is None:
                    raise AbstractBail(f"unknown function {callee}()")
                if not ct.types_compatible(
                    cell.pointee.unqualified(), fndef.type.unqualified()
                ):
                    raise AbstractBail("call through an incompatible function pointer")
            else:
                raise AbstractBail(f"call through non-function {name}")
        else:
            raise AbstractBail("unmodeled call target")
        args = [self._eval(arg, env) for arg in expr.arguments]
        flows = self._call(fndef, args, env, line)
        if "normal" in flows and "return" not in flows:
            raise AbstractBail(f"{fndef.name}() never returns a value")
        return flows["return"]

    def _eval_printf(self, expr: c_ast.Call, env: _AbsEnv) -> _Value:
        if not expr.arguments or not isinstance(expr.arguments[0], c_ast.StringLiteral):
            raise AbstractBail("printf without a literal format string")
        fmt = expr.arguments[0].value
        conversions = _printf_conversions(fmt)
        if conversions is None:
            raise AbstractBail("printf format outside the modeled subset")
        if len(conversions) != len(expr.arguments) - 1:
            raise AbstractBail("printf arity outside the modeled subset")
        for arg in expr.arguments[1:]:
            value = self._eval(arg, env)
            self._require_int(value, "printf argument")
        return _Opaque("printf return value")

    # -- lvalues -----------------------------------------------------------
    def _lvalue(self, expr: c_ast.Expression, env: _AbsEnv, line: int):
        if isinstance(expr, c_ast.Identifier):
            cell = env.lookup(expr.name)
            if cell is None:
                raise AbstractBail(f"unknown lvalue {expr.name}")
            return ("cell", cell)
        if isinstance(expr, c_ast.ArraySubscript):
            base = expr.array
            if not isinstance(base, c_ast.Identifier):
                raise AbstractBail("unmodeled subscript base")
            cell = env.lookup(base.name)
            index = self._require_int(self._eval(expr.index, env), "array index")
            if isinstance(cell, _ArrCell):
                return ("elem", cell, self._check_index(cell, index, line))
            if isinstance(cell, _PtrCell):
                raise AbstractBail("pointer subscripting")
            raise AbstractBail(f"subscript of non-array {base.name}")
        if isinstance(expr, c_ast.UnaryOp) and expr.op == "*":
            ptr = self._eval(expr.operand, env)
            if not isinstance(ptr, _PtrVal):
                raise AbstractBail("dereference of a non-pointer value")
            return ("deref", ptr)
        raise AbstractBail(f"unmodeled lvalue {type(expr).__name__}")

    def _check_index(
        self, cell: _ArrCell, index: AbstractInt, line: int
    ) -> AbstractInt:
        length = cell.length
        if 0 <= index.lo and index.hi < length:
            return index
        if not self.options.check_memory:
            raise AbstractBail(
                "possible out-of-bounds access with memory checks disabled"
            )
        certain = index.hi < 0 or index.lo >= length
        self._ub(
            PossibleUB(
                UBKind.OUT_OF_BOUNDS,
                "Pointer arithmetic or access outside the bounds of an object.",
                line,
                certain=certain,
                witness=Interval(index.lo, index.hi),
            )
        )
        refined = index.meet_range(0, length - 1)
        if refined is None:
            raise _Stuck(None)
        return refined

    def _address_of(
        self, operand: c_ast.Expression, env: _AbsEnv, line: int
    ) -> _PtrVal:
        if isinstance(operand, c_ast.Identifier):
            cell = env.lookup(operand.name)
            if isinstance(cell, _IntCell):
                return _PtrVal(cell.ctype, (("int", cell.uid),), "no")
            if cell is None and operand.name in self.functions:
                return _PtrVal(
                    self.functions[operand.name].type, (("fn", operand.name),), "no"
                )
            raise AbstractBail(f"unmodeled address-of &{operand.name}")
        if isinstance(operand, c_ast.ArraySubscript) and isinstance(
            operand.array, c_ast.Identifier
        ):
            cell = env.lookup(operand.array.name)
            if not isinstance(cell, _ArrCell):
                raise AbstractBail("unmodeled address-of subscript")
            index = self._require_int(self._eval(operand.index, env), "array index")
            if not (0 <= index.lo and index.hi < cell.length):
                raise AbstractBail("address-of possibly out-of-bounds element")
            return _PtrVal(
                cell.element, (("elem", cell.uid, index.lo, index.hi),), "no"
            )
        raise AbstractBail("unmodeled address-of operand")

    def _deref_read(self, ptr: _Value, line: int, env: _AbsEnv) -> _Value:
        if not isinstance(ptr, _PtrVal):
            raise AbstractBail("dereference of a non-pointer value")
        self._deref_null_check(ptr, line)
        values: list[AbstractInt] = []
        for target in ptr.targets:
            values.append(self._read_target(target, env, line))
        if not values:
            raise _Stuck(None)
        result = values[0]
        for value in values[1:]:
            result = result.join(value)
        return result

    def _deref_null_check(self, ptr: _PtrVal, line: int) -> None:
        if ptr.null == "yes" and not ptr.targets:
            if not self.options.check_memory:
                raise AbstractBail("null dereference with memory checks disabled")
            self._ub(
                PossibleUB(
                    UBKind.NULL_DEREFERENCE,
                    "Dereference of a null pointer.",
                    line,
                    certain=True,
                )
            )
        elif ptr.null in ("yes", "maybe"):
            if not self.options.check_memory:
                raise AbstractBail(
                    "possible null dereference with memory checks disabled"
                )
            self._ub(
                PossibleUB(
                    UBKind.NULL_DEREFERENCE,
                    "Dereference of a null pointer.",
                    line,
                    certain=False,
                )
            )

    def _read_target(self, target, env: _AbsEnv, line: int) -> AbstractInt:
        if target[0] == "int":
            cell = env.by_uid(target[1])
            if not isinstance(cell, _IntCell):
                raise AbstractBail("dangling abstract pointer target")
            return self._read_int_cell(cell, line)
        if target[0] == "elem":
            cell = env.by_uid(target[1])
            if not isinstance(cell, _ArrCell):
                raise AbstractBail("dangling abstract pointer target")
            lo, hi = target[2], min(target[3], cell.length - 1)
            inits = set(cell.inits[lo:hi + 1])
            if inits == {_INIT_NO}:
                self._uninit(line)
            elif _INIT_NO in inits or _INIT_MAYBE in inits:
                self._uninit(line, certain=False)
            values = [v for v in cell.values[lo:hi + 1] if v is not None]
            if not values:
                raise _Stuck(None)
            result = values[0]
            for value in values[1:]:
                result = result.join(value)
            return result
        raise AbstractBail("dereference of a function pointer")

    def _lvalue_read(self, lvalue, env: _AbsEnv, line: int) -> _Value:
        kind = lvalue[0]
        if kind == "cell":
            cell = lvalue[1]
            cell = env.by_uid(cell.uid) or cell
            if isinstance(cell, _IntCell):
                return self._read_int_cell(cell, line)
            if isinstance(cell, _PtrCell):
                if cell.init == _INIT_NO:
                    self._uninit(line)
                elif cell.init == _INIT_MAYBE:
                    self._uninit(line, certain=False)
                return _PtrVal(cell.pointee, cell.targets, cell.null)
            raise AbstractBail("unmodeled lvalue cell read")
        if kind == "elem":
            _, cell, index = lvalue
            cell = env.by_uid(cell.uid) or cell
            return self._read_target(("elem", cell.uid, index.lo, index.hi), env, line)
        if kind == "deref":
            return self._deref_read(lvalue[1], line, env)
        raise AbstractBail("unmodeled lvalue read")

    def _const_write_check(self, const: bool, line: int, certain: bool = True) -> None:
        if const and self.options.check_const:
            self._ub(
                PossibleUB(
                    UBKind.CONST_VIOLATION,
                    "Modification of an object defined with a const-qualified "
                    "type.",
                    line,
                    certain=certain,
                )
            )

    def _lvalue_write(self, lvalue, value: _Value, env: _AbsEnv, line: int) -> None:
        kind = lvalue[0]
        if kind == "cell":
            cell = env.by_uid(lvalue[1].uid)
            if cell is None:
                raise AbstractBail("write to an unbound cell")
            self._const_write_check(cell.const, line)
            if isinstance(cell, _IntCell):
                if not isinstance(value, AbstractInt):
                    raise AbstractBail("pointer stored into an int cell")
                env.replace(
                    cell.uid,
                    _IntCell(cell.uid, cell.ctype, value, _INIT_YES, cell.const),
                )
                return
            if isinstance(cell, _PtrCell):
                if not isinstance(value, _PtrVal):
                    raise AbstractBail("non-pointer stored into a pointer")
                env.replace(
                    cell.uid,
                    _PtrCell(
                        cell.uid,
                        cell.pointee,
                        value.targets,
                        value.null,
                        _INIT_YES,
                        cell.const,
                    ),
                )
                return
            raise AbstractBail("unmodeled lvalue cell write")
        if kind == "elem":
            _, cell, index = lvalue
            fresh = env.by_uid(cell.uid)
            if not isinstance(fresh, _ArrCell):
                raise AbstractBail("write to a vanished array")
            if not isinstance(value, AbstractInt):
                raise AbstractBail("pointer stored into an array element")
            self._const_write_check(fresh.const, line)
            self._write_elements(
                fresh, index.lo, index.hi, value, env, strong=index.is_constant
            )
            return
        if kind == "deref":
            ptr = lvalue[1]
            self._deref_null_check(ptr, line)
            if not ptr.targets:
                raise _Stuck(None)
            strong = len(ptr.targets) == 1 and ptr.null == "no"
            for target in ptr.targets:
                self._write_ptr_target(target, value, env, line, strong=strong)
            return
        raise AbstractBail("unmodeled lvalue write")

    def _write_ptr_target(
        self, target, value: _Value, env: _AbsEnv, line: int, *, strong: bool
    ) -> None:
        if target[0] == "int":
            cell = env.by_uid(target[1])
            if not isinstance(cell, _IntCell):
                raise AbstractBail("dangling abstract pointer target")
            if not isinstance(value, AbstractInt):
                raise AbstractBail("pointer stored through an int pointer")
            self._const_write_check(cell.const, line, certain=strong)
            converted = abstract_convert(self._facts(cell.ctype), value)
            if not strong:
                converted = _join_opt(cell.value, converted)
            env.replace(
                cell.uid,
                _IntCell(
                    cell.uid,
                    cell.ctype,
                    converted,
                    _INIT_YES if strong else _merge_init(cell.init, _INIT_YES),
                    cell.const,
                ),
            )
            return
        if target[0] == "elem":
            cell = env.by_uid(target[1])
            if not isinstance(cell, _ArrCell):
                raise AbstractBail("dangling abstract pointer target")
            if not isinstance(value, AbstractInt):
                raise AbstractBail("pointer stored through an int pointer")
            self._const_write_check(cell.const, line, certain=strong)
            lo, hi = target[2], min(target[3], cell.length - 1)
            self._write_elements(cell, lo, hi, value, env, strong=strong and lo == hi)
            return
        raise AbstractBail("write through a function pointer")

    def _write_elements(
        self,
        cell: _ArrCell,
        lo: int,
        hi: int,
        value: AbstractInt,
        env: _AbsEnv,
        *,
        strong: bool,
    ) -> None:
        converted = abstract_convert(self._facts(cell.element), value)
        values = list(cell.values)
        inits = list(cell.inits)
        for index in range(lo, hi + 1):
            if strong:
                values[index] = converted
                inits[index] = _INIT_YES
            else:
                values[index] = _join_opt(values[index], converted)
                inits[index] = _merge_init(inits[index], _INIT_YES)
        env.replace(
            cell.uid,
            _ArrCell(cell.uid, cell.element, tuple(values), tuple(inits), cell.const),
        )


def lvalue_type(lvalue) -> ct.CType:
    kind = lvalue[0]
    if kind == "cell":
        cell = lvalue[1]
        if isinstance(cell, _IntCell):
            return cell.ctype
        if isinstance(cell, _PtrCell):
            return ct.PointerType(pointee=cell.pointee)
    if kind == "elem":
        return lvalue[1].element
    if kind == "deref":
        ptr = lvalue[1]
        if ptr.pointee is not None and isinstance(ptr.pointee, ct.IntType):
            return ptr.pointee
    raise AbstractBail("unmodeled lvalue type")


def _flip_compare(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "==": "==", "!=": "!="}[op]


_PRINTF_SIMPLE = set("duxXoc")


def _printf_conversions(fmt: str) -> Optional[list[str]]:
    conversions: list[str] = []
    index = 0
    while index < len(fmt):
        ch = fmt[index]
        if ch != "%":
            index += 1
            continue
        if index + 1 >= len(fmt):
            return None
        spec = fmt[index + 1]
        if spec == "%":
            index += 2
            continue
        if spec in _PRINTF_SIMPLE:
            conversions.append(spec)
            index += 2
            continue
        return None
    return conversions


# ---------------------------------------------------------------------------
# Flow plumbing
# ---------------------------------------------------------------------------

def _join_flow_env(a: Optional[_AbsEnv], b: _AbsEnv) -> _AbsEnv:
    return b if a is None else a.join(b)


def _merge_flows(into: dict, flows: dict) -> None:
    for kind, entry in flows.items():
        if kind == "normal":
            continue
        if kind == "return":
            env, value = entry
            if "return" in into:
                old_env, old_value = into["return"]
                joined_env = old_env.join(env)
                if value is None or old_value is None:
                    joined_value = old_value if value is None else value
                elif isinstance(value, AbstractInt) and isinstance(
                    old_value, AbstractInt
                ):
                    joined_value = old_value.join(value)
                else:
                    raise AbstractBail("joining non-integer return values")
                into["return"] = (joined_env, joined_value)
            else:
                into["return"] = entry
        else:
            if kind in into:
                into[kind] = into[kind].join(entry)
            else:
                into[kind] = entry


def _widen_env(old: _AbsEnv, new: _AbsEnv, evaluator: AbstractEvaluator) -> _AbsEnv:
    """Cell-wise widening of ``old`` by ``new`` (same scope structure)."""
    result = new.copy()
    for scope_index, scope in enumerate(result.scopes):
        for name, cell in list(scope.items()):
            old_cell = old.scopes[scope_index].get(name)
            if old_cell is None or old_cell.uid != cell.uid:
                continue
            if isinstance(cell, _IntCell) and isinstance(old_cell, _IntCell):
                if cell.value is not None and old_cell.value is not None:
                    facts = evaluator._facts(cell.ctype)
                    scope[name] = _IntCell(
                        cell.uid,
                        cell.ctype,
                        old_cell.value.widen(cell.value, facts),
                        cell.init,
                        cell.const,
                    )
            elif isinstance(cell, _ArrCell) and isinstance(old_cell, _ArrCell):
                facts = evaluator._facts(cell.element)
                merged = []
                for ov, nv in zip(old_cell.values, cell.values):
                    if ov is not None and nv is not None:
                        merged.append(ov.widen(nv, facts))
                    else:
                        merged.append(_join_opt(ov, nv))
                values = tuple(merged)
                scope[name] = _ArrCell(
                    cell.uid, cell.element, values, cell.inits, cell.const
                )
    return result


def _env_equal(a: _AbsEnv, b: _AbsEnv) -> bool:
    if len(a.scopes) != len(b.scopes):
        return False
    for sa, sb in zip(a.scopes, b.scopes):
        if sa.keys() != sb.keys():
            return False
        for name, ca in sa.items():
            cb = sb[name]
            if type(ca) is not type(cb) or ca.uid != cb.uid:
                return False
            if isinstance(ca, _IntCell):
                va, vb = ca.value, cb.value
                if (va is None) != (vb is None):
                    return False
                if va is not None and not va.same_set(vb):
                    return False
                if ca.init != cb.init:
                    return False
            elif isinstance(ca, _ArrCell):
                for va, vb in zip(ca.values, cb.values):
                    if (va is None) != (vb is None):
                        return False
                    if va is not None and not va.same_set(vb):
                        return False
                if ca.inits != cb.inits:
                    return False
            elif isinstance(ca, _PtrCell):
                if (
                    set(ca.targets) != set(cb.targets)
                    or ca.null != cb.null
                    or ca.init != cb.init
                ):
                    return False
    return True


def analyze(
    unit: c_ast.TranslationUnit,
    options: CheckerOptions = DEFAULT_OPTIONS,
    inputs: Optional[dict[str, tuple[int, int]]] = None,
) -> AbsResult:
    """Abstractly execute ``unit`` under the given input ranges."""
    return AbstractEvaluator(unit, options, inputs).run()


__all__ = [
    "AbsResult",
    "AbstractBail",
    "AbstractEvaluator",
    "MAX_UNROLL",
    "MAX_WIDEN",
    "analyze",
]
