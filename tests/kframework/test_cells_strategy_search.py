"""Unit tests for the K-style substrate: cells and evaluation-order strategies.

The search over orders is tested through ``Checker.search`` in
``test_search_engine.py``.
"""

import pytest

from repro.kframework.cells import Cell, Configuration, make_configuration
from repro.kframework.strategy import (
    LeftToRightStrategy,
    RightToLeftStrategy,
    ScriptedStrategy,
    strategy_for,
)


class TestCells:
    def test_find_nested_cell(self):
        root = Cell("T")
        local = root.add(Cell("local"))
        local.add(Cell("env", {"x": "sym(1)"}))
        config = Configuration(root=root)
        assert config.cell("env") is not None
        assert config.cell("missing") is None

    def test_render_contains_labels_and_content(self):
        cell = Cell("env", {"x": "sym(1)"})
        text = cell.render()
        assert "<env>" in text and "x |-> sym(1)" in text

    def test_make_configuration_structure(self):
        config = make_configuration(
            k=["main()"], genv={"g": "sym(1)"}, mem_summary={"sym(1)": "obj(4, static)"},
            locs_written={"sym(1)+0"}, not_writable=set(), call_stack=["main"],
            local_env={"x": "sym(2)"}, local_types={"x": "int"})
        assert config.cell("k").content == ["main()"]
        assert config.cell("callStack").content == ["main"]
        assert "sym(1)+0" in config.cell("locsWrittenTo").content
        assert config.cell("env").content == {"x": "sym(2)"}

    def test_render_empty_k_cell(self):
        assert ".K" in Cell("k", []).render()


class TestStrategies:
    def test_left_to_right(self):
        assert list(LeftToRightStrategy().order(3)) == [0, 1, 2]

    def test_right_to_left(self):
        assert list(RightToLeftStrategy().order(3)) == [2, 1, 0]

    def test_scripted_defaults_to_left_to_right(self):
        strategy = ScriptedStrategy()
        assert tuple(strategy.order(2)) == (0, 1)
        assert strategy.observed_arity == [2]

    def test_scripted_follows_decisions(self):
        strategy = ScriptedStrategy(decisions=[1])
        assert tuple(strategy.order(2)) == (1, 0)
        assert tuple(strategy.order(2)) == (0, 1)  # script exhausted

    def test_scripted_permutations_for_three(self):
        strategy = ScriptedStrategy(decisions=[5])
        assert tuple(strategy.order(3)) == (2, 1, 0)

    def test_strategy_for_names(self):
        # Only the two fixed orders have configuration names; exploring
        # every order is a search (search_evaluation_order=True), which
        # drives its own ScriptedStrategy on the walker.
        assert isinstance(strategy_for("left-to-right"), LeftToRightStrategy)
        assert isinstance(strategy_for("right-to-left"), RightToLeftStrategy)
        with pytest.raises(ValueError, match="search"):
            strategy_for("search")

    def test_strategy_for_unknown_raises(self):
        with pytest.raises(ValueError):
            strategy_for("random")

