"""The run's resource limits decide its verdict, identically on every engine.

``max_call_depth`` must be what stops a deep recursion, not Python's own
recursion limit (which is hit at a different C depth on each engine, and at
another one again on a worker thread), and ``max_heap_objects`` must bound
the heap a program can allocate.
"""

import sys
import threading
import time

import pytest

from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool

ENGINES = ("walker", "lowered", "compiled")

RECURSION = """
static int r(int n) { return n == 0 ? 0 : 1 + r(n - 1); }
int main(void) { return r(%d) & 0x7F; }
"""


def _outcome(engine: str, source: str, options: CheckerOptions):
    report = KccTool(options.without(engine=engine)).check(source)
    return report.outcome.kind.name, report.outcome.exit_code, report.outcome.detail


def _on_worker_thread(function, *args):
    """Run ``function`` on a fresh thread with the default stack, the way
    ``serve`` runs a check without a pool."""
    result = {}

    def target():
        result["value"] = function(*args)

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return result["value"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("where", ["main", "worker"])
def test_max_call_depth_bounds_recursion(engine, where):
    options = CheckerOptions()
    # main is frame 1, so r(n) runs n + 2 frames deep at its base case.
    deepest = options.max_call_depth - 2

    def run(depth):
        source = RECURSION % depth
        if where == "worker":
            return _on_worker_thread(_outcome, engine, source, options)
        return _outcome(engine, source, options)

    assert run(150) == ("DEFINED", 150 & 0x7F, "")
    assert run(deepest) == ("DEFINED", deepest & 0x7F, "")
    assert run(deepest + 1) == ("INCONCLUSIVE", None, "call depth limit exceeded")


@pytest.mark.parametrize("engine", ENGINES)
def test_max_call_depth_is_configurable(engine):
    options = CheckerOptions(max_call_depth=1000)
    assert _outcome(engine, RECURSION % 998, options) == ("DEFINED", 998 & 0x7F, "")
    assert _outcome(engine, RECURSION % 999, options) == (
        "INCONCLUSIVE",
        None,
        "call depth limit exceeded",
    )


class _YieldingSys:
    """``sys`` as the interpreter module sees it, with a thread switch after
    every recursion-limit read, so that an unguarded check-then-set loses
    updates."""

    def getrecursionlimit(self):
        limit = sys.getrecursionlimit()
        time.sleep(0.0001)
        return limit

    def setrecursionlimit(self, limit):
        sys.setrecursionlimit(limit)


def test_concurrent_runs_never_lower_each_others_limit(monkeypatch):
    # Threads raising the limit for different depths at once must leave the
    # largest: a lost check-then-set would strand a deeper run below its
    # max_call_depth.
    from repro.core import interpreter

    monkeypatch.setattr(interpreter, "sys", _YieldingSys())
    depths = [100 + 10 * index for index in range(8)]
    old_limit = sys.getrecursionlimit()
    try:
        for _round in range(20):
            sys.setrecursionlimit(1000)
            barrier = threading.Barrier(len(depths))

            def raise_for(depth, barrier=barrier):
                barrier.wait(timeout=10)
                interpreter._cover_call_depth(depth)

            threads = [threading.Thread(target=raise_for, args=(d,)) for d in depths]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            wanted = interpreter._FRAMES_PER_CALL * max(depths)
            assert sys.getrecursionlimit() == wanted
    finally:
        sys.setrecursionlimit(old_limit)


def test_recursion_past_the_raised_limit_stays_inconclusive():
    # A huge max_call_depth (as a serve client may send) raises Python's
    # limit only up to its cap; recursion past that ends in RecursionError,
    # reported as inconclusive, never in a C stack overflow.
    options = CheckerOptions(max_call_depth=10**6)
    kind, _exit, detail = _on_worker_thread(
        _outcome, "walker", RECURSION % 20000, options
    )
    assert kind == "INCONCLUSIVE"
    assert "maximum recursion depth exceeded" in detail


ALLOCATIONS = """
#include <stdlib.h>
int main(void) {
    int i;
    for (i = 0; i < %d; i++) { char *p = malloc(1); free(p); }
    return 3;
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_max_heap_objects_is_enforced(engine):
    options = CheckerOptions(max_heap_objects=5)
    assert _outcome(engine, ALLOCATIONS % 5, options) == ("DEFINED", 3, "")
    assert _outcome(engine, ALLOCATIONS % 6, options) == (
        "INCONCLUSIVE",
        None,
        "heap object limit exceeded",
    )
    assert _outcome(engine, ALLOCATIONS % 50, options)[0] == "INCONCLUSIVE"
    # The default limit is far above anything a normal program allocates.
    assert _outcome(engine, ALLOCATIONS % 50, CheckerOptions()) == ("DEFINED", 3, "")


#: ``mem*`` builtins over objects too large to hold byte by byte.  Each
#: program runs in a subprocess under a 1 GB address-space limit, so one
#: that builds a byte per byte dies there instead of taking the machine.
HUGE_MEMORY_PROGRAMS = {
    # A fill of a sparse object's whole extent changes its default byte.
    "memset-whole": ("int data[2147483647]; memset(data, 0, sizeof(data)); return data[7];",
                     ("DEFINED", 0)),
    # The range is checked first, so an overrun stays undefined.
    "memset-overrun": ("int data[2147483647]; memset(data, 0, sizeof(data) + 1); return 0;",
                       ("UNDEFINED", None)),
    "memset-part": ("int data[2147483647]; memset(data + 1, 1, sizeof(data) - 4); return 0;",
                    ("INCONCLUSIVE", None)),
    "memcpy": ("static char a[2147483647], b[2147483647]; memcpy(a, b, sizeof a); return 0;",
               ("INCONCLUSIVE", None)),
    "memmove-overrun": ("static char a[2147483647], b[16]; memmove(b, a, sizeof a); return 0;",
                        ("UNDEFINED", None)),
    "memcmp": ("static char a[2147483647], b[2147483647]; return memcmp(a, b, sizeof a);",
               ("INCONCLUSIVE", None)),
}

_HUGE_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool
body, engine = sys.argv[1], sys.argv[2]
source = "#include <string.h>\\nint main(void) { " + body + " }\\n"
outcome = KccTool(CheckerOptions(engine=engine)).check(source).outcome
print(outcome.kind.name, outcome.exit_code)
"""


@pytest.mark.parametrize("engine", ("walker", "compiled"))
def test_mem_builtins_over_huge_objects_end_in_a_verdict(engine):
    import os
    import subprocess

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for name, (body, (kind, exit_code)) in HUGE_MEMORY_PROGRAMS.items():
        done = subprocess.run(
            [sys.executable, "-c", _HUGE_CHILD, body, engine],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, (name, done.stderr[-2000:])
        assert done.stdout.split() == [kind, str(exit_code)], name
