"""Count the bytecode VM's dispatches and the Python calls of a run.

A dispatch is one pass of :func:`repro.core.vm.run_native`'s loop, counted
as a ``sys.settrace`` line event at its ``op = ins[0]`` line (found by its
source text, so moving the line does not break the count).  Python calls
are ``call`` events of ``sys.setprofile``.  Both count one run of a program
whose front end and bytecode were built beforehand, so they measure the
dynamic stage alone.  Print the counts of the four benchmark loop programs
with::

    PYTHONPATH=src python -m tests.core.dispatch_count

``tests/core/test_dispatch_count.py`` pins the dispatches and steps.  The
Python calls are printed but not pinned: they differ by a call or two
between Python versions.
"""

from __future__ import annotations

import inspect
import sys
from typing import NamedTuple

#: The loops-warm benchmark programs, copied here so that the benchmark and
#: the tests can change independently.  All four run entirely on the VM.
LOOP_PROGRAMS = {
    "arith-loop": """
int main(void){
    long s = 0;
    int i;
    for (i = 0; i < 6000; i++) { s += i * 2 + (i % 3); }
    return s & 0xFF ? 0 : 1;
}
""",
    "array-sweep": """
int main(void){
    int a[64];
    int i, j, s = 0;
    for (i = 0; i < 64; i++) a[i] = i * i;
    for (j = 0; j < 90; j++)
        for (i = 0; i < 64; i++)
            s += a[i] >> 2;
    return s == 0;
}
""",
    "call-chain": """
static int f(int x){ return x * 2 + 1; }
int main(void){
    int i, s = 0;
    for (i = 0; i < 1500; i++) s += f(i) & 7;
    return s < 0;
}
""",
    "pointer-walk": """
int main(void){
    int a[32];
    int *p;
    int i, j, s = 0;
    for (i = 0; i < 32; i++) a[i] = i;
    for (j = 0; j < 120; j++)
        for (p = a; p < a + 32; p++)
            s += *p;
    return s == 0;
}
""",
}


#: The line of run_native's loop that every dispatch runs.
DISPATCH = "op = ins[0]"


class Counts(NamedTuple):
    dispatches: int
    steps: int
    calls: int


def dispatch_line() -> int:
    """The line number of ``op = ins[0]`` in ``run_native``."""
    from repro.core import vm

    lines, start = inspect.getsourcelines(vm.run_native)
    found = [start + at for at, text in enumerate(lines) if text.strip() == DISPATCH]
    if len(found) != 1:
        raise LookupError(f"run_native has {len(found)} {DISPATCH!r} lines")
    return found[0]


def count(source: str, options=None) -> Counts:
    """The dispatches, steps and Python calls of one run of ``source``."""
    from repro.core import vm
    from repro.core.config import CheckerOptions
    from repro.core.kcc import KccTool

    tool = KccTool(options or CheckerOptions())
    unit = tool.compile_unit(source)
    unit.compiled_for(tool.options)
    code = vm.run_native.__code__
    line = dispatch_line()
    dispatches = 0

    def in_run_native(frame, event, arg):
        nonlocal dispatches
        if event == "line" and frame.f_lineno == line:
            dispatches += 1
        return in_run_native

    def on_call(frame, event, arg):
        return in_run_native if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        report = tool.run_unit(unit)
    finally:
        sys.settrace(previous)
    calls = 0

    def on_profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(on_profile)
    try:
        tool.run_unit(unit)
    finally:
        sys.setprofile(previous)
    return Counts(dispatches, report.result.steps, calls)


def table() -> dict[str, Counts]:
    return {name: count(source) for name, source in LOOP_PROGRAMS.items()}


def main() -> None:
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{'program':<14}{'dispatches':>12}{'steps':>10}{'Python calls':>14}")
    for name, counts in table().items():
        dispatches, steps, calls = counts
        print(f"{name:<14}{dispatches:>12,}{steps:>10,}{calls:>14,}")
    print(f"(Python {version}; Python calls are not pinned)")


if __name__ == "__main__":
    main()
