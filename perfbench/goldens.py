"""Expected outputs, none of them taken from the run being timed.

Dend and Dias dimensions come from closed forms (Catalan numbers and
1..n), Xplus and Xminus from the values frozen in the package's test
suite, the self-duality verdicts from the battery's hand-written rule, and
the battery summary and findings from the report the test suite pins.
"""

from __future__ import annotations

from math import comb

# tests/test_series.py freezes these through weight 4
FROZEN_DIMS = {"Xplus": (1, 4, 16, 58), "Xminus": (1, 4, 16, 56)}

# exchanging the two middle arrow operations, all signs positive
SELF_DUAL_WITNESS = ((0, 2, 1, 3), (1, 1, 1, 1))

VERIFY_PAPER_SUMMARY = {"total": 45, "pass": 41, "fail": 0, "finding": 4}
# the four findings are the weight-4 dims of the sixteen-relation pair,
# each recorded twice (against 64 and against the series prediction)
FINDING_VALUES = {"plus": "58", "minus": "56"}
# defining relations per built-in, in catalog order; the test suite pins
# the resulting 56 single-relation deletions
SPANNING_COUNTS = {"As": 1, "Dend": 3, "Dias": 5, "DendSquareDias": 15, "Xplus": 16, "Xminus": 16}


def dims(name: str, max_weight: int) -> tuple[int, ...]:
    """Component dimensions of a built-in, weights 1..max_weight."""
    if name == "Dend":
        return tuple(comb(2 * n, n) // (n + 1) for n in range(1, max_weight + 1))
    if name == "Dias":
        return tuple(range(1, max_weight + 1))
    known = FROZEN_DIMS[name]
    if max_weight > len(known):
        raise KeyError(f"no golden for {name} beyond weight {len(known)}")
    return known[:max_weight]


def is_self_dual(a: int, b: int) -> bool:
    """The battery's rule: a nonzero a of the same magnitude as b."""
    return a != 0 and abs(a) == abs(b)
