"""The VM's dispatches and steps on the four benchmark loop programs.

The table is what ``python -m tests.core.dispatch_count`` prints, less the
Python calls (they differ by a call or two between Python versions).  A
change to the compiler's output that adds or removes dispatches updates it
on purpose; the steps must not move.
"""

from __future__ import annotations

from tests.core.dispatch_count import LOOP_PROGRAMS, count

#: (dispatches, steps) of one run, identical on Python 3.11 to 3.13.
EXPECTED = {
    "arith-loop": (42_012, 102_017),
    "array-sweep": (35_651, 82_821),
    "call-chain": (15_008, 28_515),
    "pointer-walk": (28_197, 52_250),
}


def test_loop_program_dispatches_and_steps():
    counted = {}
    for name, source in LOOP_PROGRAMS.items():
        counts = count(source)
        counted[name] = (counts.dispatches, counts.steps)
    assert counted == EXPECTED

