"""The dynamic semantics driver: program setup, function calls, execution.

The :class:`Interpreter` is the Python counterpart of running a program under
the paper's executable semantics: it owns the configuration (memory, global
environment, call stack, output), executes ``main``, and either produces a
defined result (exit code plus program output) or raises
:class:`UndefinedBehaviorError` at the first undefined operation it reaches.
"""

from __future__ import annotations

import sys
import threading
import weakref
from dataclasses import dataclass
from typing import Optional, Union

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.headers import BUILTIN_FUNCTIONS
from repro.core.config import CheckerOptions, DEFAULT_OPTIONS
from repro.core.conversions import convert
from repro.core.environment import (
    ExitSignal,
    Frame,
    FunctionBinding,
    GotoSignal,
    LValue,
    ObjectBinding,
    ReturnSignal,
)
from repro.core.eval_expr import ExpressionEvaluatorMixin
from repro.core.eval_stmt import StatementExecutorMixin
from repro.core.memory import Memory, StorageKind
from repro.core.stdlib import BUILTIN_IMPLEMENTATIONS
from repro.core.vm import run_native
from repro.core.values import (
    Byte,
    ConcreteByte,
    CValue,
    IndeterminateValue,
    IntValue,
    PointerValue,
    StructValue,
    VoidValue,
    encode_value,
    unknown_bytes,
)
from repro.errors import (
    ResourceLimitError,
    UBKind,
    UndefinedBehaviorError,
    UnsupportedFeatureError,
)
from repro.events import (
    FAMILY_FUNCTIONS,
    CallEvent,
    ChoiceEvent,
    ProbeSet,
    ReturnEvent,
    report_undefined,
)
from repro.kframework.cells import Configuration, make_configuration
from repro.kframework.strategy import EvaluationStrategy, strategy_for


_BUILTIN_FALLBACK_BINDINGS: dict[str, FunctionBinding] = {
    name: FunctionBinding(
        name=name,
        type=ct.FunctionType(return_type=ct.INT, parameters=(), variadic=True,
                             has_prototype=False),
        has_definition=True, is_builtin=True)
    for name in BUILTIN_FUNCTIONS
}

#: Per translation unit, keyed by ``id(unit)``: a weak reference to the
#: unit, its declaration count, its function definitions and the function
#: bindings its declarations make (those that differ from
#: ``_BUILTIN_FALLBACK_BINDINGS``), built by its first run.  Bindings are
#: replaced, never mutated, so each run starts from copies of the dicts.
#: The weak reference tells the unit from a later one that reuses its id.
_UNIT_BINDINGS: dict[int, tuple] = {}


def _forget_unit(key: int):
    return lambda _ref: _UNIT_BINDINGS.pop(key, None)


#: Python frames one C call may take on the deepest engine (the walker needs
#: about 20 for a call in a small expression; the rest is headroom for
#: nesting).
_FRAMES_PER_CALL = 50

#: The highest recursion limit a run sets.  Recursion to three times this
#: depth was measured to end in ``RecursionError``, not a C stack overflow,
#: on every engine, on the main thread and on a worker thread with the
#: default 8 MB stack (CPython 3.11, x86-64 Linux).
_RECURSION_LIMIT_CAP = 100_000

#: Runs on concurrent threads (``serve`` without a pool) may want different
#: limits; the check-then-set is atomic so none lowers another's.
_RECURSION_LIMIT_LOCK = threading.Lock()


def _cover_call_depth(max_call_depth: int) -> None:
    """Raise (never lower) Python's recursion limit so that the checker's
    ``max_call_depth``, not Python's stack, bounds the C call depth."""
    wanted = min(_RECURSION_LIMIT_CAP, _FRAMES_PER_CALL * max_call_depth)
    if sys.getrecursionlimit() < wanted:
        with _RECURSION_LIMIT_LOCK:
            if sys.getrecursionlimit() < wanted:
                sys.setrecursionlimit(wanted)


@dataclass
class ExecutionResult:
    """The observable result of running a program to completion."""

    exit_code: int = 0
    stdout: str = ""
    steps: int = 0
    aborted: bool = False
    returned_from_main: bool = True


class Interpreter(ExpressionEvaluatorMixin, StatementExecutorMixin):
    """Executes a parsed translation unit on the symbolic abstract machine."""

    def __init__(self, unit: c_ast.TranslationUnit,
                 options: CheckerOptions = DEFAULT_OPTIONS, *,
                 strategy: Optional[EvaluationStrategy] = None,
                 stdin: str = "", lowered=None, compiled=None) -> None:
        self.unit = unit
        self.options = options
        self.profile = options.profile
        if compiled is not None and not compiled.functions:
            compiled = None  # every function falls back
        # The compiled engine addresses object bytes as flat integer offsets,
        # so pair it with the contiguous arena store; everything else keeps
        # the per-object dict store.
        self.memory = Memory(options,
                             store="arena" if compiled is not None else "dict")
        #: Compiled register-bytecode of the unit
        #: (:class:`repro.core.bytecode.CompiledProgram`), or None.  Functions
        #: present in ``compiled.functions`` run on the VM; everything else
        #: runs on the walker.
        self.compiled = compiled
        #: Attached :class:`repro.events.ProbeSet`, or None (the common case).
        #: Set via :meth:`attach_probes`; every emission site is guarded on it.
        self.events: Optional[ProbeSet] = None
        own_strategy = strategy_for(options.evaluation_order)
        if (strategy is not None and type(strategy) is not type(own_strategy)
                and (lowered is not None or compiled is not None)):
            # The closures and the bytecode fix the options' own operand
            # order when they are built; any other order runs on the walker.
            raise ValueError(
                f"the lowered closures and the bytecode run only the "
                f"{options.evaluation_order!r} order of their options; run a "
                f"{strategy.name!r} strategy on the walker")
        self.strategy = strategy or own_strategy
        #: Lowered IR of the unit (:class:`repro.core.lowering.LoweredUnit`),
        #: or None to interpret raw AST nodes (the legacy walker).
        self.lowered = lowered
        self.functions: dict[str, c_ast.FunctionDef] = {}
        self.function_bindings: dict[str, FunctionBinding] = {}
        self.global_bindings: dict[str, ObjectBinding] = {}
        self.frames: list[Frame] = []
        self.pointer_registry: dict[int, PointerValue] = {}
        self._string_literals: dict[str, tuple[PointerValue, ct.ArrayType]] = {}
        self._static_locals: dict[int, ObjectBinding] = {}
        self._output: list[str] = []
        self._stdin = stdin
        self._stdin_pos = 0
        self._steps = 0
        self._frame_counter = 0
        self._rand_state = 1
        self.current_function = "<startup>"
        self.current_line = 0
        self._register_unit_bindings()

    # ------------------------------------------------------------------
    # Program setup
    # ------------------------------------------------------------------
    def _register_builtins(self) -> None:
        # The fallback bindings are identical for every run and are only ever
        # *replaced* (never mutated) when the program or the builtin headers
        # declare a real signature, so one shared set serves all interpreters.
        self.function_bindings.update(_BUILTIN_FALLBACK_BINDINGS)

    def _register_unit_bindings(self) -> None:
        """The builtins and the unit's own functions, bound once per unit
        (a header's prototypes are many) and copied for each run."""
        unit = self.unit
        key = id(unit)
        entry = _UNIT_BINDINGS.get(key)
        if (entry is None or entry[0]() is not unit
                or entry[1] != len(unit.declarations)):
            self._register_builtins()
            self._register_translation_unit()
            own = {name: binding for name, binding in self.function_bindings.items()
                   if _BUILTIN_FALLBACK_BINDINGS.get(name) is not binding}
            entry = (weakref.ref(unit, _forget_unit(key)), len(unit.declarations),
                     self.functions, own)
            _UNIT_BINDINGS[key] = entry
        self.functions = dict(entry[2])
        self.function_bindings = dict(_BUILTIN_FALLBACK_BINDINGS)
        self.function_bindings.update(entry[3])

    def _register_translation_unit(self) -> None:
        # First pass: function definitions and prototypes, so that globals can
        # take the address of functions defined later in the file.
        for declaration in self.unit.declarations:
            if isinstance(declaration, c_ast.FunctionDef):
                self.functions[declaration.name] = declaration
                assert isinstance(declaration.type, ct.FunctionType)
                self.function_bindings[declaration.name] = FunctionBinding(
                    name=declaration.name, type=declaration.type, has_definition=True,
                    is_builtin=declaration.name in BUILTIN_FUNCTIONS and False)
            elif isinstance(declaration, c_ast.Declaration) and isinstance(
                    declaration.type, ct.FunctionType):
                existing = self.function_bindings.get(declaration.name)
                is_builtin = declaration.name in BUILTIN_FUNCTIONS
                if is_builtin:
                    # The builtin header prototype supplies the real signature
                    # (so bad calls to library functions are type-checked).
                    self.function_bindings[declaration.name] = FunctionBinding(
                        name=declaration.name, type=declaration.type,
                        has_definition=True, is_builtin=True)
                elif existing is None or not existing.has_definition:
                    self.function_bindings[declaration.name] = FunctionBinding(
                        name=declaration.name, type=declaration.type,
                        has_definition=False, is_builtin=False)

    def _initialize_globals(self) -> None:
        """Allocate and initialize every file-scope object (static storage)."""
        startup = Frame(frame_id=self._next_frame_id(), function_name="<startup>",
                        return_type=ct.INT)
        startup.push_scope()
        self.frames.append(startup)
        try:
            for declaration in self.unit.declarations:
                if not isinstance(declaration, c_ast.Declaration):
                    continue
                if isinstance(declaration.type, ct.FunctionType):
                    continue
                if declaration.storage == "extern" and declaration.initializer is None:
                    continue
                self._define_global(declaration)
        finally:
            self.frames.pop()

    def _define_global(self, declaration: c_ast.Declaration) -> None:
        ctype = declaration.type
        assert ctype is not None
        existing = self.global_bindings.get(declaration.name)
        if existing is not None and declaration.initializer is None:
            return
        if existing is not None:
            obj = self.memory.objects[existing.base]
        else:
            size = self._object_size(ctype, declaration)
            obj = self.memory.allocate(size, StorageKind.STATIC, name=declaration.name,
                                       declared_type=ctype,
                                       is_const=self._is_const_object(ctype))
            self.global_bindings[declaration.name] = ObjectBinding(
                name=declaration.name, base=obj.base, type=ctype,
                is_const=self._is_const_object(ctype))
        # Static storage duration objects start out zero-initialized (§6.7.9:10).
        obj.zero_fill()
        if declaration.initializer is not None:
            pointer = PointerValue(base=obj.base, offset=0, type=ct.PointerType(pointee=ctype))
            was_const = obj.base in self.memory.not_writable
            self.memory.not_writable.discard(obj.base)
            try:
                self._initialize_into(pointer, ctype, declaration.initializer, declaration.line)
            finally:
                if was_const:
                    self.memory.not_writable.add(obj.base)
            self.memory.sequence_point()

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, argv: Optional[list[str]] = None) -> ExecutionResult:
        """Execute the program's ``main`` function and return its result."""
        _cover_call_depth(self.options.max_call_depth)
        self._initialize_globals()
        main_def = self.functions.get("main")
        if main_def is None:
            raise UnsupportedFeatureError("program has no main() function")
        arguments: list[CValue] = []
        assert isinstance(main_def.type, ct.FunctionType)
        if len(main_def.type.parameters) >= 2:
            arguments = self._build_main_arguments(argv or ["a.out"])
        try:
            value = self.call_function("main", arguments, main_def.line)
        except ExitSignal as signal:
            return ExecutionResult(exit_code=signal.status, stdout=self.stdout,
                                   steps=self._steps, aborted=signal.aborted,
                                   returned_from_main=False)
        except UndefinedBehaviorError as error:
            self._annotate(error)
            raise
        exit_code = 0
        if isinstance(value, IntValue):
            exit_code = value.value & 0xFF if value.value >= 0 else value.value % 256
        return ExecutionResult(exit_code=exit_code, stdout=self.stdout, steps=self._steps)

    def _build_main_arguments(self, argv: list[str]) -> list[CValue]:
        pointers: list[PointerValue] = []
        for argument in argv:
            data: list[Byte] = [ConcreteByte(ord(c) & 0xFF) for c in argument] + [ConcreteByte(0)]
            obj = self.memory.allocate(len(data), StorageKind.STATIC, name="<argv>",
                                       declared_type=ct.ArrayType(element=ct.CHAR,
                                                                  length=len(data)),
                                       data=data)
            pointers.append(PointerValue(base=obj.base, offset=0, type=ct.CHAR_PTR))
        pointer_size = self.profile.sizeof_pointer
        table_bytes: list[Byte] = []
        for pointer in pointers:
            table_bytes.extend(encode_value(pointer, ct.CHAR_PTR, self.profile))
        table_bytes.extend(ConcreteByte(0) for _ in range(pointer_size))
        table = self.memory.allocate(len(table_bytes), StorageKind.STATIC, name="<argv-table>",
                                     declared_type=ct.ArrayType(element=ct.CHAR_PTR,
                                                                length=len(pointers) + 1),
                                     data=table_bytes)
        argv_value = PointerValue(base=table.base, offset=0,
                                  type=ct.PointerType(pointee=ct.CHAR_PTR))
        return [IntValue(len(argv), ct.INT), argv_value]

    @property
    def stdout(self) -> str:
        return "".join(self._output)

    # ------------------------------------------------------------------
    # Steps, diagnostics, I/O
    # ------------------------------------------------------------------
    def step(self, line: int = 0) -> None:
        if line:
            self.current_line = line
        self._steps += 1
        if self._steps > self.options.max_steps:
            raise ResourceLimitError(
                f"execution exceeded {self.options.max_steps} steps")

    def _annotate(self, error: UndefinedBehaviorError) -> None:
        if error.function is None:
            error.function = self.current_function
        if error.line is None:
            error.line = self.current_line

    def write_output(self, text: str) -> None:
        self._output.append(text)

    def read_input_char(self) -> int:
        if self._stdin_pos >= len(self._stdin):
            return -1
        ch = self._stdin[self._stdin_pos]
        self._stdin_pos += 1
        return ord(ch)

    def read_input_token(self) -> Optional[str]:
        while self._stdin_pos < len(self._stdin) and self._stdin[self._stdin_pos].isspace():
            self._stdin_pos += 1
        if self._stdin_pos >= len(self._stdin):
            return None
        start = self._stdin_pos
        while self._stdin_pos < len(self._stdin) and not self._stdin[self._stdin_pos].isspace():
            self._stdin_pos += 1
        return self._stdin[start:self._stdin_pos]

    def next_random(self) -> int:
        self._rand_state = (self._rand_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._rand_state

    def seed_random(self, seed: int) -> None:
        self._rand_state = seed & 0x7FFFFFFF or 1

    def encode_scalar(self, value: int, ctype: ct.CType) -> list[Byte]:
        return encode_value(IntValue(value, ctype), ctype, self.profile)

    def attach_probes(self, events: ProbeSet) -> None:
        """Subscribe a probe set to this run's execution events."""
        self.events = events
        self.memory.events = events

    def operand_order(self, count: int, site: object = None):
        if count <= 1:
            return range(count)
        order = self.strategy.order(count, site)
        if self.events is not None:
            order = tuple(order)
            self.events.emit(ChoiceEvent(count, order, self.current_line))
        return order

    # ------------------------------------------------------------------
    # Name lookup and object creation
    # ------------------------------------------------------------------
    def current_frame(self) -> Frame:
        return self.frames[-1]

    def lookup_binding(self, name: str, line: int) -> Union[ObjectBinding, FunctionBinding]:
        if self.frames:
            binding = self.frames[-1].lookup(name)
            if binding is not None:
                return binding
        global_binding = self.global_bindings.get(name)
        if global_binding is not None:
            return global_binding
        function_binding = self.function_bindings.get(name)
        if function_binding is not None:
            return function_binding
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_CALL, f"Use of undeclared identifier '{name}'.", line=line)

    def lookup_global(self, name: str) -> Optional[ObjectBinding]:
        return self.global_bindings.get(name)

    def register_function_declaration(self, name: str, ftype: ct.FunctionType) -> None:
        existing = self.function_bindings.get(name)
        if existing is None or not existing.has_definition:
            self.function_bindings[name] = FunctionBinding(
                name=name, type=ftype, has_definition=name in BUILTIN_FUNCTIONS,
                is_builtin=name in BUILTIN_FUNCTIONS)

    def _object_size(self, ctype: ct.CType, declaration: c_ast.Declaration) -> int:
        if isinstance(ctype, ct.ArrayType) and ctype.length is None:
            completed = self._complete_array_from_initializer(ctype, declaration.initializer)
            if completed is not None:
                declaration.type = completed
                return ct.size_of(completed, self.profile)
        try:
            return ct.size_of(ctype, self.profile)
        except ct.LayoutError as exc:
            raise UndefinedBehaviorError(
                UBKind.INCOMPLETE_TYPE_OBJECT,
                f"Object '{declaration.name}' defined with an incomplete type: {exc}",
                line=declaration.line)

    def _complete_array_from_initializer(
            self, ctype: ct.ArrayType,
            initializer: Optional[c_ast.Expression]) -> Optional[ct.ArrayType]:
        if initializer is None:
            return None
        if isinstance(initializer, c_ast.InitList):
            return ct.ArrayType(element=ctype.element, length=max(len(initializer.items), 1),
                                const=ctype.const, volatile=ctype.volatile)
        if isinstance(initializer, c_ast.StringLiteral) and ct.is_character_type(ctype.element):
            return ct.ArrayType(element=ctype.element, length=len(initializer.value) + 1,
                                const=ctype.const, volatile=ctype.volatile)
        return None

    @staticmethod
    def _is_const_object(ctype: ct.CType) -> bool:
        if ctype.const:
            return True
        if isinstance(ctype, ct.ArrayType):
            return ctype.element.const
        return False

    def define_auto_object(self, declaration: c_ast.Declaration) -> None:
        ctype = declaration.type
        assert ctype is not None
        size = self._object_size(ctype, declaration)
        ctype = declaration.type  # may have been completed from the initializer
        frame = self.current_frame()
        obj = self.memory.allocate(size, StorageKind.AUTO, name=declaration.name,
                                   declared_type=ctype, frame=frame.frame_id,
                                   is_const=False)
        binding = ObjectBinding(name=declaration.name, base=obj.base, type=ctype,
                                is_const=self._is_const_object(ctype))
        frame.declare(binding)
        if declaration.initializer is not None:
            pointer = PointerValue(base=obj.base, offset=0, type=ct.PointerType(pointee=ctype))
            if self._initializer_is_constant_zero_fill(ctype, declaration.initializer):
                obj.zero_fill()
            self._initialize_into(pointer, ctype, declaration.initializer, declaration.line)
        if self._is_const_object(ctype):
            self.memory.mark_not_writable(obj.base)

    @staticmethod
    def _initializer_is_constant_zero_fill(ctype: ct.CType,
                                           initializer: c_ast.Expression) -> bool:
        """A brace-enclosed initializer zero-fills the uncovered parts (§6.7.9:21)."""
        return isinstance(initializer, c_ast.InitList) and not ctype.is_scalar

    def define_static_local(self, declaration: c_ast.Declaration) -> None:
        binding = self.static_local_binding(declaration)
        frame = self.current_frame()
        frame.scopes[-1].bindings[declaration.name] = binding

    def static_local_binding(self, declaration: c_ast.Declaration) -> ObjectBinding:
        """The object of a static local, made and initialized the first
        time its declaration runs (the compiled engine calls this too)."""
        key = id(declaration)
        binding = self._static_locals.get(key)
        if binding is None:
            ctype = declaration.type
            assert ctype is not None
            size = self._object_size(ctype, declaration)
            ctype = declaration.type
            obj = self.memory.allocate(size, StorageKind.STATIC, name=declaration.name,
                                       declared_type=ctype,
                                       is_const=self._is_const_object(ctype))
            obj.zero_fill()
            binding = ObjectBinding(name=declaration.name, base=obj.base, type=ctype,
                                    is_const=self._is_const_object(ctype))
            self._static_locals[key] = binding
            if declaration.initializer is not None:
                pointer = PointerValue(base=obj.base, offset=0,
                                       type=ct.PointerType(pointee=ctype))
                was_const = obj.base in self.memory.not_writable
                self.memory.not_writable.discard(obj.base)
                try:
                    self._initialize_into(pointer, ctype, declaration.initializer,
                                          declaration.line)
                finally:
                    if was_const:
                        self.memory.not_writable.add(obj.base)
        return binding

    # ------------------------------------------------------------------
    # Initializers
    # ------------------------------------------------------------------
    def _initialize_into(self, pointer: PointerValue, ctype: ct.CType,
                         initializer: c_ast.Expression, line: int) -> None:
        ctype_resolved = self.resolve_record(ctype, line)
        if isinstance(ctype_resolved, ct.ArrayType):
            self._initialize_array(pointer, ctype_resolved, initializer, line)
            return
        if isinstance(ctype_resolved, (ct.StructType, ct.UnionType)) and isinstance(
                initializer, c_ast.InitList):
            self._initialize_record(pointer, ctype_resolved, initializer, line)
            return
        expr = initializer
        while isinstance(expr, c_ast.InitList):
            if not expr.items:
                self.memory.write_bytes(
                    pointer, [ConcreteByte(0)] * ct.size_of(ctype_resolved, self.profile),
                    line=line, track_sequencing=False)
                return
            expr = expr.items[0]
        value = self.eval_expr(expr)
        if isinstance(value, StructValue) and ctype_resolved.is_record:
            converted: CValue = value
        else:
            converted = convert(value, ctype_resolved, self.options, line=line,
                                pointer_registry=self.pointer_registry)
        data = encode_value(converted, ctype_resolved, self.profile)
        self.memory.write_bytes(pointer, data, line=line,
                                lvalue_type=ctype_resolved, track_sequencing=False)

    def _initialize_array(self, pointer: PointerValue, ctype: ct.ArrayType,
                          initializer: c_ast.Expression, line: int) -> None:
        element_type = ctype.element
        element_size = ct.size_of(element_type, self.profile)
        length = ctype.length or 0
        if isinstance(initializer, c_ast.StringLiteral) and ct.is_character_type(element_type):
            text = initializer.value
            data: list[Byte] = [ConcreteByte(ord(c) & 0xFF) for c in text]
            data.append(ConcreteByte(0))
            if length and len(data) > length:
                data = data[:length]
            if length and len(data) < length:
                data.extend(ConcreteByte(0) for _ in range(length - len(data)))
            self.memory.write_bytes(pointer, data, line=line, track_sequencing=False)
            return
        if not isinstance(initializer, c_ast.InitList):
            value = self.eval_expr(initializer)
            if isinstance(value, StructValue):
                self.memory.write_bytes(pointer, list(value.data), line=line,
                                        track_sequencing=False)
                return
            raise UnsupportedFeatureError("array initialized from a non-initializer expression")
        for index, item in enumerate(initializer.items):
            if length and index >= length:
                break
            element_pointer = pointer.with_offset(pointer.offset + index * element_size)
            element_pointer = element_pointer.with_type(ct.PointerType(pointee=element_type))
            self._initialize_into(element_pointer, element_type, item, line)

    def _initialize_record(self, pointer: PointerValue, ctype: Union[ct.StructType, ct.UnionType],
                           initializer: c_ast.InitList, line: int) -> None:
        layout = ct.struct_layout(ctype, self.profile)
        for index, item in enumerate(initializer.items):
            if index >= len(layout.fields):
                break
            field_layout = layout.fields[index]
            field_pointer = pointer.with_offset(pointer.offset + field_layout.offset)
            field_pointer = field_pointer.with_type(ct.PointerType(pointee=field_layout.type))
            self._initialize_into(field_pointer, field_layout.type, item, line)
            if isinstance(ctype, ct.UnionType):
                break

    def compound_literal_lvalue(self, ctype: ct.CType, initializer: c_ast.InitList,
                                line: int) -> LValue:
        """Materialize a compound literal (§6.5.2.5): an unnamed automatic
        object whose lifetime ends with the enclosing scope."""
        size = ct.size_of(ctype, self.profile)
        frame = self.current_frame()
        obj = self.memory.allocate(size, StorageKind.AUTO, name="<compound-literal>",
                                   declared_type=ctype, frame=frame.frame_id)
        obj.zero_fill()
        frame.scopes[-1].owned_bases.append(obj.base)
        pointer = PointerValue(base=obj.base, offset=0, type=ct.PointerType(pointee=ctype))
        self._initialize_into(pointer, ctype, initializer, line)
        return LValue(pointer=pointer, type=ctype)

    def build_compound_literal(self, ctype: ct.CType, initializer: c_ast.InitList,
                               line: int) -> CValue:
        lvalue = self.compound_literal_lvalue(ctype, initializer, line)
        return self.read_lvalue(lvalue, line)

    # ------------------------------------------------------------------
    # String literals and record resolution
    # ------------------------------------------------------------------
    def string_literal_object(self, text: str) -> tuple[PointerValue, ct.ArrayType]:
        cached = self._string_literals.get(text)
        if cached is not None:
            return cached
        data: list[Byte] = [ConcreteByte(ord(c) & 0xFF) for c in text] + [ConcreteByte(0)]
        array_type = ct.ArrayType(element=ct.CHAR, length=len(data))
        obj = self.memory.allocate(len(data), StorageKind.STRING_LITERAL,
                                   name=f'"{text[:20]}"', declared_type=array_type, data=data)
        pointer = PointerValue(base=obj.base, offset=0, type=ct.CHAR_PTR)
        self._string_literals[text] = (pointer, array_type)
        return pointer, array_type

    def resolve_record(self, ctype: ct.CType, line: int) -> ct.CType:
        """Resolve an incomplete struct/union reference against the parsed tags."""
        if isinstance(ctype, (ct.StructType, ct.UnionType)) and ctype.fields is None:
            # The parser completes tagged records in place, so an incomplete
            # record here genuinely has no definition in the translation unit.
            return ctype
        return ctype

    # ------------------------------------------------------------------
    # Function calls
    # ------------------------------------------------------------------
    def eval_call(self, expr: c_ast.Call) -> CValue:
        line = expr.line
        callee_name: Optional[str] = None
        callee_type: Optional[ct.FunctionType] = None
        function_expr = expr.function
        if isinstance(function_expr, c_ast.Identifier):
            name = function_expr.name
            binding = self.function_bindings.get(name)
            local = self.frames[-1].lookup(name) if self.frames else None
            global_obj = self.global_bindings.get(name)
            if local is not None or (global_obj is not None and binding is None):
                value = self.eval_expr(function_expr)
                callee_name, callee_type = self._function_from_value(value, line)
            elif binding is not None:
                callee_name = name
                callee_type = binding.type
            else:
                # Implicit declaration of a function (§6.5.1:2 in C90 terms);
                # calling an undeclared, undefined function is undefined.
                if name in BUILTIN_FUNCTIONS:
                    callee_name = name
                    callee_type = None
                else:
                    raise UndefinedBehaviorError(
                        UBKind.BAD_FUNCTION_CALL,
                        f"Call to undeclared function '{name}'.", line=line)
        else:
            value = self.eval_expr(function_expr)
            callee_name, callee_type = self._function_from_value(value, line)

        arguments = self._evaluate_arguments(expr.arguments, callee_name, callee_type, line)
        # There is a sequence point after the evaluation of the function
        # designator and the arguments and before the actual call (§6.5.2.2:10).
        self.memory.sequence_point()
        return self.call_function(callee_name, arguments, line, declared_type=callee_type)

    def _function_from_value(self, value: CValue, line: int) -> tuple[str, Optional[ct.FunctionType]]:
        if isinstance(value, PointerValue) and value.function is not None:
            pointee = value.type.pointee if isinstance(value.type, ct.PointerType) else None
            ftype = pointee if isinstance(pointee, ct.FunctionType) else None
            return value.function, ftype
        if isinstance(value, PointerValue) and value.is_null:
            raise UndefinedBehaviorError(
                UBKind.NULL_DEREFERENCE, "Call through a null function pointer.", line=line)
        if isinstance(value, IndeterminateValue):
            raise UndefinedBehaviorError(
                UBKind.UNINITIALIZED_READ,
                "Call through an indeterminate function pointer.", line=line)
        raise UndefinedBehaviorError(
            UBKind.BAD_FUNCTION_TYPE, "Called object is not a function or function pointer.",
            line=line)

    def _evaluate_arguments(self, argument_exprs: list[c_ast.Expression],
                            callee_name: Optional[str],
                            callee_type: Optional[ct.FunctionType],
                            line: int) -> list[CValue]:
        values = self._eval_unsequenced(argument_exprs, line) if argument_exprs else []
        return self._convert_arguments(values, callee_name, callee_type, line)

    def _convert_arguments(self, values: list[CValue],
                           callee_name: Optional[str],
                           callee_type: Optional[ct.FunctionType],
                           line: int) -> list[CValue]:
        """Check and convert already-evaluated argument values (§6.5.2.2).

        Shared by the legacy walker (via :meth:`_evaluate_arguments`) and the
        lowered fast path, which evaluates the argument closures itself.
        """
        if callee_type is None or not callee_type.has_prototype:
            return [self._default_promote(v, line) for v in values]
        params = callee_type.parameters
        if self.options.check_functions:
            if len(values) < len(params) or (len(values) > len(params) and not callee_type.variadic):
                report_undefined(UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    f"Function '{callee_name}' called with {len(values)} argument(s) but its "
                    f"prototype has {len(params)}{' or more' if callee_type.variadic else ''}.",
                    line=line), FAMILY_FUNCTIONS)
        converted: list[CValue] = []
        for index, value in enumerate(values):
            if index < len(params):
                param_type = params[index]
                if self.options.check_functions:
                    self._check_argument_compatibility(value, param_type, index, callee_name, line)
                if isinstance(value, StructValue) and param_type.is_record:
                    converted.append(value)
                else:
                    converted.append(convert(value, param_type, self.options, line=line,
                                             pointer_registry=self.pointer_registry))
            else:
                converted.append(self._default_promote(value, line))
        return converted

    def _check_argument_compatibility(self, value: CValue, param_type: ct.CType,
                                      index: int, callee_name: Optional[str], line: int) -> None:
        param = param_type.unqualified()
        if isinstance(param, ct.PointerType):
            if isinstance(value, (PointerValue,)):
                return
            if isinstance(value, IntValue) and value.value == 0:
                return
            report_undefined(UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_CALL,
                f"Argument {index + 1} to '{callee_name}' has a non-pointer value but the "
                f"parameter has pointer type {param}.", line=line), FAMILY_FUNCTIONS)
            return
        if param.is_arithmetic:
            if isinstance(value, (IntValue,)) or isinstance(value, (IndeterminateValue,)):
                return
            if isinstance(value, PointerValue):
                report_undefined(UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    f"Argument {index + 1} to '{callee_name}' is a pointer but the parameter "
                    f"has arithmetic type {param}.", line=line), FAMILY_FUNCTIONS)
            return
        if param.is_record:
            if not isinstance(value, StructValue):
                report_undefined(UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    f"Argument {index + 1} to '{callee_name}' is not a structure value.",
                    line=line), FAMILY_FUNCTIONS)

    def _default_promote(self, value: CValue, line: int) -> CValue:
        """Default argument promotions for variadic / unprototyped calls."""
        if isinstance(value, IntValue) and value.type.is_integer:
            promoted = ct.promote_integer(value.type, self.profile)
            return convert(value, promoted, self.options, line=line,
                           pointer_registry=self.pointer_registry)
        if isinstance(value, CValue) and isinstance(value, type(value)) and isinstance(
                value, (IndeterminateValue,)):
            return value
        return value

    def call_function(self, name: Optional[str], arguments: list[CValue], line: int, *,
                      declared_type: Optional[ct.FunctionType] = None) -> CValue:
        events = self.events
        if events is None:
            return self._dispatch_call(name, arguments, line, declared_type=declared_type)
        events.emit(CallEvent(name or "<unresolved>", line))
        value = self._dispatch_call(name, arguments, line, declared_type=declared_type)
        events.emit(ReturnEvent(name or "<unresolved>", line))
        return value

    def _dispatch_call(self, name: Optional[str], arguments: list[CValue], line: int, *,
                       declared_type: Optional[ct.FunctionType] = None) -> CValue:
        if name is None:
            raise UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_TYPE, "Call target could not be resolved.", line=line)
        definition = self.functions.get(name)
        if definition is None:
            if name in BUILTIN_FUNCTIONS:
                return self._call_builtin(name, arguments, line)
            raise UnsupportedFeatureError(
                f"call to function '{name}' which has no definition in this program")
        assert isinstance(definition.type, ct.FunctionType)
        if (self.options.check_functions and declared_type is not None
                and declared_type.has_prototype and definition.type.has_prototype
                and not ct.types_compatible(declared_type, definition.type)):
            report_undefined(UndefinedBehaviorError(
                UBKind.BAD_FUNCTION_TYPE,
                f"Function '{name}' called through an incompatible function type.", line=line),
                FAMILY_FUNCTIONS)
        if len(self.frames) >= self.options.max_call_depth:
            raise ResourceLimitError("call depth limit exceeded")
        return self._call_user_function(definition, arguments, line)

    def _call_builtin(self, name: str, arguments: list[CValue], line: int) -> CValue:
        implementation = BUILTIN_IMPLEMENTATIONS.get(name)
        if implementation is None:
            raise UnsupportedFeatureError(f"builtin function '{name}' is not implemented")
        return implementation(self, arguments, line)

    def _call_user_function(self, definition: c_ast.FunctionDef,
                            arguments: list[CValue], line: int) -> CValue:
        assert isinstance(definition.type, ct.FunctionType)
        ftype = definition.type
        params = ftype.parameters
        if self.options.check_functions and ftype.has_prototype:
            if len(arguments) < len(params) or (len(arguments) > len(params) and not ftype.variadic):
                report_undefined(UndefinedBehaviorError(
                    UBKind.BAD_FUNCTION_CALL,
                    f"Function '{definition.name}' called with {len(arguments)} argument(s) "
                    f"but defined with {len(params)}.", line=line), FAMILY_FUNCTIONS)
        frame = Frame(frame_id=self._next_frame_id(), function_name=definition.name,
                      return_type=ftype.return_type, call_line=line)
        frame.push_scope()
        self.frames.append(frame)
        previous_function = self.current_function
        self.current_function = definition.name
        # Function executions are indeterminately sequenced with respect to the
        # caller's expression, not unsequenced: save and clear locsWrittenTo.
        saved_locs = set(self.memory.locs_written)
        self.memory.sequence_point()
        try:
            return self._execute_call_body(definition, arguments, frame, line)
        except UndefinedBehaviorError as error:
            if error.function is None:
                error.function = definition.name
            raise
        finally:
            self.memory.kill_frame(frame.frame_id)
            self.frames.pop()
            self.current_function = previous_function
            self.memory.locs_written = saved_locs

    def _execute_call_body(self, definition: c_ast.FunctionDef, arguments: list[CValue],
                           frame: Frame, line: int) -> CValue:
        """Bind parameters, run the body, and produce the return value."""
        assert isinstance(definition.type, ct.FunctionType)
        ftype = definition.type
        params = ftype.parameters
        for index, param_type in enumerate(params):
            param_name = (definition.parameter_names[index]
                          if index < len(definition.parameter_names) else f"<arg{index}>")
            size = ct.size_of(param_type, self.profile) if not param_type.is_void else 0
            obj = self.memory.allocate(size, StorageKind.AUTO, name=param_name,
                                       declared_type=param_type, frame=frame.frame_id)
            if index < len(arguments):
                data = encode_value(arguments[index], param_type, self.profile)
                obj.data[:] = data
            binding = ObjectBinding(name=param_name, base=obj.base, type=param_type)
            frame.declare(binding)
        compiled_fn = (self.compiled.functions.get(definition.name)
                       if self.compiled is not None else None)
        lowered_body = (self.lowered.functions.get(definition.name)
                        if self.lowered is not None else None)
        try:
            if compiled_fn is not None:
                return_value: Optional[CValue] = run_native(
                    self, self.compiled, compiled_fn)
            elif lowered_body is not None:
                lowered_body.run_body(self)
                return_value = None
            elif definition.body is not None:
                self.exec_compound(definition.body, new_scope=False)
                return_value = None
            else:
                return_value = None
        except ReturnSignal as signal:
            return_value = signal.value
        except GotoSignal as signal:
            raise UndefinedBehaviorError(
                UBKind.DUPLICATE_LABEL,
                f"goto to undefined label '{signal.label}' in '{definition.name}'.",
                line=line)
        if return_value is None:
            if definition.name == "main":
                return IntValue(0, ct.INT)
            if ftype.return_type.is_void:
                return VoidValue()
            # Falling off the end of a non-void function: using the value
            # is undefined; represent it as an indeterminate value.
            return IndeterminateValue(type=ftype.return_type,
                                      data=tuple(unknown_bytes(
                                          ct.size_of(ftype.return_type, self.profile)
                                          if not ftype.return_type.is_void else 0)))
        if ftype.return_type.is_void:
            if self.options.check_functions and not isinstance(return_value, VoidValue):
                return VoidValue()
            return VoidValue()
        if isinstance(return_value, StructValue) and ftype.return_type.is_record:
            return return_value
        return convert(return_value, ftype.return_type, self.options, line=line,
                       pointer_registry=self.pointer_registry)

    def _next_frame_id(self) -> int:
        self._frame_counter += 1
        return self._frame_counter

    # ------------------------------------------------------------------
    # Static expression typing (for sizeof)
    # ------------------------------------------------------------------
    def type_of_expression(self, expr: c_ast.Expression) -> ct.CType:
        """Compute the type of ``expr`` without evaluating it (sizeof operand)."""
        if isinstance(expr, c_ast.IntegerLiteral):
            return expr.type or ct.INT
        if isinstance(expr, c_ast.FloatLiteral):
            return expr.type or ct.DOUBLE
        if isinstance(expr, c_ast.CharLiteral):
            return ct.INT
        if isinstance(expr, c_ast.StringLiteral):
            return ct.ArrayType(element=ct.CHAR, length=len(expr.value) + 1)
        if isinstance(expr, c_ast.Identifier):
            binding = self.lookup_binding(expr.name, expr.line)
            if isinstance(binding, FunctionBinding):
                return binding.type
            return binding.type
        if isinstance(expr, c_ast.UnaryOp):
            if expr.op == "&":
                return ct.PointerType(pointee=self.type_of_expression(expr.operand))
            if expr.op == "*":
                inner = ct.decay(self.type_of_expression(expr.operand))
                if isinstance(inner, ct.PointerType):
                    return inner.pointee
                return ct.INT
            if expr.op in ("!",):
                return ct.INT
            if expr.op == "sizeof":
                return ct.ULONG
            inner = self.type_of_expression(expr.operand)
            return ct.promote_integer(inner, self.profile) if inner.is_integer else inner
        if isinstance(expr, c_ast.SizeofType):
            return ct.ULONG
        if isinstance(expr, c_ast.Cast):
            return expr.target_type or ct.INT
        if isinstance(expr, c_ast.BinaryOp):
            if expr.op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
                return ct.INT
            left = ct.decay(self.type_of_expression(expr.left))
            right = ct.decay(self.type_of_expression(expr.right))
            if isinstance(left, ct.PointerType) and isinstance(right, ct.PointerType):
                return ct.LONG
            if isinstance(left, ct.PointerType):
                return left
            if isinstance(right, ct.PointerType):
                return right
            if left.is_arithmetic and right.is_arithmetic:
                return ct.usual_arithmetic_conversions(left, right, self.profile)
            return ct.INT
        if isinstance(expr, c_ast.Assignment):
            return self.type_of_expression(expr.target)
        if isinstance(expr, c_ast.Conditional):
            return self.type_of_expression(expr.then)
        if isinstance(expr, c_ast.Comma):
            return self.type_of_expression(expr.right)
        if isinstance(expr, c_ast.Call):
            function_type = self.type_of_expression(expr.function)
            if isinstance(function_type, ct.PointerType):
                function_type = function_type.pointee
            if isinstance(function_type, ct.FunctionType):
                return function_type.return_type
            return ct.INT
        if isinstance(expr, c_ast.ArraySubscript):
            array_type = ct.decay(self.type_of_expression(expr.array))
            if isinstance(array_type, ct.PointerType):
                return array_type.pointee
            return ct.INT
        if isinstance(expr, c_ast.Member):
            record = self.type_of_expression(expr.object)
            if expr.arrow and isinstance(record, ct.PointerType):
                record = record.pointee
            if isinstance(record, (ct.StructType, ct.UnionType)):
                member = record.field_named(expr.member)
                if member is not None:
                    return member.type
            return ct.INT
        return ct.INT

    # ------------------------------------------------------------------
    # K-style configuration view
    # ------------------------------------------------------------------
    def configuration(self, pending: Optional[list[str]] = None) -> Configuration:
        """Render the current state as a Figure-1-style K configuration."""
        genv = {name: f"sym({binding.base})" for name, binding in self.global_bindings.items()}
        local_env: dict[str, str] = {}
        local_types: dict[str, object] = {}
        if self.frames:
            for scope in self.frames[-1].scopes:
                for name, binding in scope.bindings.items():
                    local_env[name] = f"sym({binding.base})"
                    local_types[name] = binding.type
        for name, binding in self.global_bindings.items():
            local_types.setdefault(name, binding.type)
        mem_summary = {
            f"sym({obj.base})": f"obj({obj.size}, {obj.kind.value}"
                                f"{', dead' if not obj.alive else ''})"
            for obj in self.memory.objects.values()
        }
        call_stack = [frame.function_name for frame in self.frames]
        locs = {f"sym({loc.base})+{loc.offset}" for loc in self.memory.locs_written}
        not_writable = {f"sym({base})" for base in self.memory.not_writable}
        return make_configuration(
            k=list(pending or []), genv=genv, mem_summary=mem_summary,
            locs_written=locs, not_writable=not_writable, call_stack=call_stack,
            local_env=local_env, local_types=local_types, output=self.stdout)
