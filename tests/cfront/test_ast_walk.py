"""``c_ast.walk`` against its recursive definition over the front-end corpus.

The reducer indexes the positions of ``list(c_ast.walk(unit))`` and the
bytecode compiler counts the nodes of a folded subtree with it, so the
iterative walk must yield the same nodes in the same preorder.
"""

from __future__ import annotations

from repro.cfront import ast as c_ast
from repro.cfront.parser import Parser, preprocess, tokenize
from tests.cfront.frontend_golden import corpus, mutants, suite_sources


def recursive_walk(node):
    """The reference: ``node``, then the walk of each child in order."""
    yield node
    for child in c_ast.children(node):
        yield from recursive_walk(child)


def test_walk_is_the_recursive_preorder():
    walked = 0
    for key, source in corpus() + mutants(suite_sources()):
        try:
            unit = Parser(tokenize(preprocess(source))).parse_translation_unit()
        except Exception:  # the front-end golden pins every parse failure
            continue
        expected = [id(node) for node in recursive_walk(unit)]
        assert [id(node) for node in c_ast.walk(unit)] == expected, key
        walked += 1
    assert walked > 1500


def test_walk_of_a_for_statement_with_declarations():
    unit = Parser(tokenize("int f(void){ for (int i = 0, j = 1; i < j; i++) g(i, j); }")
                  ).parse_translation_unit()
    loop = unit.declarations[0].body.items[0]
    assert isinstance(loop.init, list)
    assert list(c_ast.walk(loop)) == list(recursive_walk(loop))
    assert [type(node).__name__ for node in c_ast.walk(loop)][:4] == [
        "For", "Declaration", "IntegerLiteral", "Declaration"]
