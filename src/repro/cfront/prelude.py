"""Prelude snapshots: the builtin headers that open a unit, done once per process.

Most C programs open with ``#include`` lines, and every compile of such a
program used to preprocess, parse and statically check the same macros,
typedefs and prototypes of :mod:`repro.cfront.headers` again.  A prelude is
the state after those lines:

* the preprocessor's macros and its set of included headers;
* the parser's typedef table;
* the header declarations, in order;
* the static checker's file-scope symbols.

A unit qualifies when its opening lines, after translation phases 2 and 3,
are only blank lines and ``#include`` lines of builtin headers
(:func:`repro.cfront.preprocessor.opening_includes`).  It is then
preprocessed, lexed, parsed and checked from its first line after those
includes: its ``declarations`` list starts with the prelude's declarations
(the nodes are shared, not copied), and
:func:`repro.sema.static_checks.check_translation_unit` starts from a copy of
the prelude's file scope and skips them.  Any other opening takes the full
path, and so does a header that produced a static violation.

Why the result equals the full path's:

* only ``#include`` lines of builtin headers come before the rest, so
  nothing the user wrote reaches the headers: no ``#define``, ``#undef`` or
  declaration precedes them.  The headers hold only macros, typedefs and
  prototypes; a header that declared a tag or an enumeration constant,
  which the parser would also carry, gives no prelude;
* a header's declarations take the line of its ``#include``, so the table
  is keyed by the profile and the ``(line, header)`` of each opening include;
* no stage writes to a prelude's declarations or symbols (the tests run
  every engine, a search and the reducer over prelude units, then compare
  the prelude with a fresh one), and the macro, typedef and symbol tables
  are read-only views that each unit copies before adding to them;
* the static checker still sees the header prototypes, through the copied
  file scope, so a conflicting redeclaration of ``malloc`` is still
  diagnosed.

A prelude is built from the first compile that needs it, out of the same
work that compile does anyway, so a one-shot check pays no more.
The table is process-wide, holds at most :data:`MAX_PRELUDES` preludes (the
oldest goes first) and is guarded by a lock.  :func:`clear` empties it: the
next compile of each opening then does the full work again.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from repro.cfront import ast as c_ast
from repro.cfront import ctypes as ct
from repro.cfront.lexer import tokenize
from repro.cfront.parser import Parser
from repro.cfront.preprocessor import MacroDefinition, Preprocessor, opening_includes
from repro.sema.static_checks import StaticChecker
from repro.sema.symtab import SymbolInfo

#: The most preludes the table holds; one of three headers takes about 25 KiB.
MAX_PRELUDES = 64


@dataclass(frozen=True)
class Prelude:
    """The state after a unit's opening ``#include`` lines."""

    #: ``(line, header)`` of each opening ``#include``.
    includes: tuple[tuple[int, str], ...]
    macros: Mapping[str, MacroDefinition]
    included: frozenset[str]
    typedefs: Mapping[str, ct.CType]
    declarations: tuple[c_ast.Node, ...]
    file_scope: Mapping[str, SymbolInfo]

    @property
    def last_line(self) -> int:
        """The line of the last opening ``#include``."""
        return self.includes[-1][0]


_preludes: dict[tuple, Prelude] = {}
_lock = threading.Lock()


def find_prelude(
    lines: list[str], profile: ct.ImplementationProfile
) -> Optional[Prelude]:
    """The prelude of the opening of a unit's ``lines``, built if need be, or
    None.  ``lines`` come from :func:`repro.cfront.preprocessor.source_lines`."""
    includes = opening_includes(lines)
    if not includes:
        return None
    key = (profile, includes)
    with _lock:
        prelude = _preludes.get(key)
    if prelude is None:
        prelude = _build(includes, profile)
        if prelude is not None:
            with _lock:
                if key not in _preludes and len(_preludes) >= MAX_PRELUDES:
                    del _preludes[next(iter(_preludes))]
                _preludes[key] = prelude
    return prelude


def _build(
    includes: tuple[tuple[int, str], ...], profile: ct.ImplementationProfile
) -> Optional[Prelude]:
    lines = [""] * includes[-1][0]
    for line, header in includes:
        lines[line - 1] = f"#include <{header}>"
    preprocessor = Preprocessor()
    text = preprocessor.preprocess("\n".join(lines))
    parser = Parser(tokenize(text), profile=profile)
    unit = parser.parse_translation_unit()
    checker = StaticChecker(profile=profile)
    # A prelude carries no tags or enumeration constants.
    tags = (parser.struct_tags, parser.union_tags, parser.enum_tags)
    if checker.check(unit) or any(tags) or parser.enum_constants:
        return None
    return Prelude(
        includes=includes,
        macros=MappingProxyType(preprocessor.macros),
        included=frozenset(preprocessor.included),
        typedefs=MappingProxyType(parser.typedefs),
        declarations=tuple(unit.declarations),
        file_scope=MappingProxyType(checker.symbols.scopes[0]),
    )


def clear() -> None:
    """Empty the table."""
    with _lock:
        _preludes.clear()
