"""Deeply nested programs end with a verdict, the same in every process.

The parser, the static checks, the bytecode compiler and the walker recurse
once per nesting level.  ``KccTool.compile_unit`` raises Python's recursion
limit to what a default run covers before it parses, a front end that runs
out of it reports a parse error (inconclusive, exit 2), and a function the
bytecode compiler cannot compile for depth runs on the walker.  So a
program's verdict does not depend on what its process checked before: a
fresh ``python -m repro check`` (recursion limit 1,000 until a check raises
it) and a process that has already run a program (20,000) agree.  The
lowered closures lower each nested block once, so a deep program gets the
walker's verdict on ``engine="lowered"`` too.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.core.config import DEFAULT_OPTIONS
from repro.core.interpreter import _FRAMES_PER_CALL
from repro.core.kcc import KccTool, check_program
from repro.errors import OutcomeKind

SRC = Path(__file__).resolve().parents[2] / "src"

#: name -> (source, exit code of ``check``)
PROGRAMS = {
    # Defined: the parentheses leave a single constant.
    "parens-500": ("int main(void){ return " + "(" * 500 + "0" + ")" * 500 + "; }\n", 0),
    # Too deep for the parser: a parse error.
    "parens-12000": ("int main(void){ return " + "(" * 12_000 + "0" + ")" * 12_000
                     + "; }\n", 2),
    # The parser copes; the static checks run out of stack: a parse error.
    "unary-12000": ("int main(void){ return " + "- " * 12_000 + "0; }\n", 2),
    # Too deep for the bytecode compiler only: main runs on the walker and
    # reaches the unsequenced writes to a.
    "assign-8000": ("int main(void){ int a; return " + "a = " * 8_000 + "0; }\n", 1),
}

#: A fresh process's recursion limit, and the one a default run leaves.
PRIOR_LIMITS = (1_000, _FRAMES_PER_CALL * DEFAULT_OPTIONS.max_call_depth)


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    paths = {}
    for name, (source, _code) in PROGRAMS.items():
        paths[name] = root / f"{name}.c"
        paths[name].write_text(source, encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def fresh_process_verdicts(programs):
    """``check --format json`` of each program in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    verdicts = {}
    for name, path in programs.items():
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--format", "json", str(path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert "Traceback" not in proc.stderr, proc.stderr[-2000:]
        verdicts[name] = (proc.returncode, json.loads(proc.stdout))
    return verdicts


@pytest.mark.parametrize("name", PROGRAMS)
def test_a_fresh_process_ends_with_the_expected_exit_code(name, fresh_process_verdicts):
    code, _reports = fresh_process_verdicts[name]
    assert code == PROGRAMS[name][1]


@pytest.mark.parametrize("prior_limit", PRIOR_LIMITS)
@pytest.mark.parametrize("name", PROGRAMS)
def test_in_process_verdict_equals_a_fresh_process(name, prior_limit, programs,
                                                   fresh_process_verdicts):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(prior_limit)
    try:
        out = io.StringIO()
        code = main(["check", "--format", "json", str(programs[name])], out=out)
    finally:
        sys.setrecursionlimit(saved)
    assert (code, json.loads(out.getvalue())) == fresh_process_verdicts[name]


def _nested_blocks(depth: int, body: str) -> str:
    return "int main(void){ int d = 0; " + "{" * depth + body + "}" * depth + " }\n"


def test_lowering_lowers_each_nested_block_once(monkeypatch):
    from repro.core import lowering

    calls = 0
    lower_block = lowering.lower_block

    def counted(block, L):
        nonlocal calls
        calls += 1
        return lower_block(block, L)

    options = replace(DEFAULT_OPTIONS, engine="lowered")
    compiled = KccTool(options).compile_unit(_nested_blocks(12, "return 0;"))
    monkeypatch.setattr(lowering, "lower_block", counted)
    compiled.lowered_for(options)
    assert calls == 13  # main's body and the 12 blocks in it


@pytest.mark.parametrize("engine", ["lowered", "compiled"])
def test_a_300_deep_block_gets_the_walker_verdict(engine):
    source = _nested_blocks(300, "return 1 / d;")
    walker = check_program(source, replace(DEFAULT_OPTIONS, engine="walker"))
    other = check_program(source, replace(DEFAULT_OPTIONS, engine=engine))
    assert walker.outcome.kind is OutcomeKind.UNDEFINED
    assert other.to_dict() == walker.to_dict()
