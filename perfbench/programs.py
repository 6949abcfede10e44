"""Fixed inputs and hand-made references of the benchmark workloads.

The loops-warm programs are copied here, not imported from the repository's
other benchmarks, so that editing those cannot move this workload.  Their
reference exit codes are worked out by hand below, never taken from kcc.
"""

#: Interpreter-bound programs of the loops-warm workload.  ``call-chain``
#: and ``pointer-walk`` leave the bytecode VM's native subset (a call, a
#: pointer-typed local) and exercise the lowered-closure fallback.
LOOP_PROGRAMS = {
    "arith-loop": r"""
int main(void){
    long s = 0;
    int i;
    for (i = 0; i < 6000; i++) { s += i * 2 + (i % 3); }
    return s & 0xFF ? 0 : 1;
}
""",
    "array-sweep": r"""
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
    "call-chain": r"""
static int f(int x){ return x * 2 + 1; }
int main(void){
    int i, s = 0;
    for (i = 0; i < 1500; i++) s += f(i) & 7;
    return s < 0;
}
""",
    "pointer-walk": r"""
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

#: Each loops program is defined and exits with this code:
#:
#: * arith-loop: s = 2 * (0 + ... + 5999) + 2000 * (0 + 1 + 2)
#:   = 35,994,000 + 6,000 = 36,000,000 = 256 * 140,625, so s & 0xFF is 0
#:   and main returns 1.
#: * array-sweep: every term i*i >> 2 is non-negative and 8*8 >> 2 = 16 is
#:   one of them, so s > 0 and main returns 0.
#: * call-chain: every term f(i) & 7 is non-negative, so s < 0 is false.
#: * pointer-walk: s = 120 * (0 + ... + 31) = 59,520, so s == 0 is false.
LOOP_EXIT_CODES = {
    "arith-loop": 1,
    "array-sweep": 0,
    "call-chain": 0,
    "pointer-walk": 0,
}

#: Suite programs on which kcc's default (single evaluation order, no
#: search) verdict disagrees with the hand-written ``is_bad`` label.  The
#: first two are order-dependent and need evaluation-order search; the
#: other four are checks kcc does not implement.  suite-cold reports every
#: disagreement by name: one outside this set fails the run, and one of
#: these that starts agreeing is reported as fixed.
KNOWN_SUITE_MISSES = frozenset({
    "unsequenced-conflict-on-other-order_bad",
    "evaluation-order-dependent-division_bad",
    "restrict-qualifier-violation_bad",
    "volatile-accessed-through-nonvolatile_bad",
    "internal-and-external-linkage_bad",
    "empty-character-constant-spelling_bad",
})
