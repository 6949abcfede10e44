#!/usr/bin/env python3
"""Implementation-defined undefinedness (paper Section 2.5.1).

Whether a program is undefined can depend on implementation-defined choices
such as ``sizeof(int)``.  The paper's example allocates four bytes and stores
an ``int`` into them: fine when ints are 4 bytes, an out-of-bounds write when
they are 8.  This example checks the same program under three implementation
profiles.

It uses the staged session API: one :class:`repro.Checker` per profile (a
compiled unit is tied to the profile it was parsed under — type sizes are
baked into its layout), each compiling the two programs once and running
them from the cache.

Run with:  python examples/implementation_profiles.py [--no-lowering]

``--no-lowering`` runs the dynamic stage on the reference AST walker instead
of the compiled VM; the verdicts are identical either way.
"""

import sys

from repro import Checker, CheckerOptions, PROFILES

MALLOC_FOUR = r"""
#include <stdlib.h>

int main(void){
    int* p = malloc(4);
    if (p) { *p = 1000; }
    free(p);
    return 0;
}
"""

SIZE_REPORT = r"""
#include <stdio.h>

int main(void){
    printf("sizeof(int)=%d sizeof(long)=%d sizeof(void*)=%d\n",
           (int)sizeof(int), (int)sizeof(long), (int)sizeof(void*));
    return 0;
}
"""


def main() -> None:
    lowering = "--no-lowering" not in sys.argv
    for name, profile in sorted(PROFILES.items()):
        checker = Checker(CheckerOptions(profile=profile,
                                         enable_lowering=lowering))
        print("=" * 72)
        print(f"Implementation profile: {name}")
        sizes = checker.run(checker.compile(SIZE_REPORT))
        print("  " + sizes.outcome.stdout.strip())
        verdict = checker.run(checker.compile(MALLOC_FOUR))
        print(f"  malloc(4); *p = 1000;  ->  {verdict.outcome.describe()}")
        print()


if __name__ == "__main__":
    main()
