#!/usr/bin/env python3
"""A gallery of undefined behaviors from the paper, checked one by one.

Each entry is a pair of programs: the undefined version and its defined
control, in the style of the paper's own test suite (Section 5.2.2).  The
example prints, for every behavior, what the checker reports for both
versions — the defined control must come back clean, otherwise the checker
would get full marks just by rejecting everything.

This uses the staged session API: one :class:`repro.Checker` compiles each
program into a cached ``CompiledUnit`` and runs it, so re-checking (or
checking the same program under several configurations) never re-parses.

Run with:  python examples/undefined_gallery.py [--no-lowering]

``--no-lowering`` runs the dynamic stage on the reference AST walker instead
of the compiled VM; the reports are identical either way.
"""

import sys

from repro import Checker, CheckerOptions
from repro.suites.ubsuite import BEHAVIOR_TESTS

#: Behaviors highlighted in the paper's narrative.
HIGHLIGHTED = [
    "signed-addition-overflow",            # the x + 1 < x idiom of §2.3
    "relational-comparison-unrelated-pointers",   # &a < &b of §4.3.1
    "partial-pointer-copy-use",            # the byte-splitting example of §4.3.2
    "write-to-const-through-strchr",       # the strchr example of §4.2.2
    "unsequenced-writes-to-scalar",        # (x=1)+(x=2) of §2.3
    "modify-string-literal",
    "use-after-free",
    "array-of-zero-length",                # the array-length example of §3.2
]


def main() -> None:
    options = CheckerOptions(enable_lowering="--no-lowering" not in sys.argv)
    checker = Checker(options)
    by_name = {entry.behavior: entry for entry in BEHAVIOR_TESTS}
    for name in HIGHLIGHTED:
        entry = by_name[name]
        print("=" * 72)
        print(f"{entry.behavior}  (C11 {entry.section}, {entry.stage})")
        print(f"  {entry.description}")
        bad = checker.run(checker.compile(entry.bad))
        good = checker.run(checker.compile(entry.good))
        print(f"  undefined version -> {bad.outcome.describe()}")
        print(f"  defined control   -> {good.outcome.describe()}")
        print()
    # Compiled units are cached by content hash: re-compiling any of the
    # programs is a cache hit, not a parse.
    for name in HIGHLIGHTED:
        checker.compile(by_name[name].bad)
    stats = checker.stats.snapshot()
    print(f"({stats['run_count']} staged checks, {stats['parse_count']} parses, "
          f"{stats['cache_hits']} compile-cache hits)")


if __name__ == "__main__":
    main()
