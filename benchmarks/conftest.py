"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark module reproduces one table or figure of the paper.  The
rendered tables are echoed to the terminal; ``pytest benchmarks/
--record-results`` also writes them, with the JSON results, to
``benchmarks/results/``.  A run without the option leaves the committed
results untouched.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analyzers.registry import default_tools
from repro.suites.harness import EvaluationHarness
from repro.suites.juliet import generate_juliet_suite
from repro.suites.ubsuite import generate_undefinedness_suite

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--record-results",
        action="store_true",
        default=False,
        help="write benchmark tables and JSON results to benchmarks/results/",
    )


def record(name: str, text: str, capsys) -> None:
    """Write one results file, and only under ``--record-results``."""
    if capsys.request.config.getoption("--record-results", default=False):
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / name).write_text(text, encoding="utf-8")


def publish(name: str, text: str, capsys) -> None:
    """Print a rendered table, and record it (see :func:`record`)."""
    record(name, text + "\n", capsys)
    with capsys.disabled():
        print()
        print(text)


@pytest.fixture(scope="session")
def juliet_suite():
    return generate_juliet_suite()


@pytest.fixture(scope="session")
def undefinedness_suite():
    return generate_undefinedness_suite()


@pytest.fixture(scope="session")
def tools():
    return default_tools()


@pytest.fixture(scope="session")
def juliet_comparison(juliet_suite, tools):
    return EvaluationHarness(tools).run_suite(juliet_suite)


@pytest.fixture(scope="session")
def ubsuite_comparison(undefinedness_suite, tools):
    return EvaluationHarness(tools).run_suite(undefinedness_suite)
