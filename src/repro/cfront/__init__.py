"""C front end: lexer, preprocessor, type model, abstract syntax, parser.

This package is the "substrate" the paper's semantics sits on: it turns C
source text into a typed abstract syntax tree that the static checker
(:mod:`repro.sema`), the dynamic semantics (:mod:`repro.core`) and the
baseline analyzers (:mod:`repro.analyzers`) all consume.
"""

from repro.cfront.lexer import Token, TokenKind, tokenize
from repro.cfront.preprocessor import Preprocessor, preprocess
from repro.cfront.parser import Parser, parse, parse_file
from repro.cfront.printer import CPrinter, ast_equivalent, to_c_source
from repro.cfront.ctypes import ImplementationProfile

__all__ = [
    "Token",
    "TokenKind",
    "tokenize",
    "Preprocessor",
    "preprocess",
    "Parser",
    "parse",
    "parse_file",
    "CPrinter",
    "ast_equivalent",
    "to_c_source",
    "ImplementationProfile",
]
