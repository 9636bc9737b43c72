"""Closed-form and recursive upper bounds on shortest confusable-pair lengths.

All integer formulas use exact arithmetic. Two evaluations are floating:
dudik_su_bound (floored) and closed_form_bound (ceiled — truncation misses
every reference value by exactly one, so the rounding rule that reproduces
the reference numbers is documented as "ceil" in the report). best_bound
reproduces the summary table as printed; its 5..27 row is 4(2^k-1), one
looser than the trimmed-construction value 4(2^k-1)-2, and the report's
note says so.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

PADDED = "PADDED"
S_PADDED = "S_PADDED"
DUDIK_SU = "DUDIK_SU"
KAPPA = "KAPPA"
COROLLARY_REC = "COROLLARY_REC"
CLOSED_FORM = "CLOSED_FORM"
UNGAPPED_REFERENCE = "UNGAPPED_REFERENCE"
EXACT = "EXACT"  # search-confirmed values in the summary table

# each formula's rounding rule: "exact" integer arithmetic, or what turns its
# floating evaluation into the reported value ("none": the float itself)
_ROUNDING = {
    PADDED: "exact",
    S_PADDED: "exact",
    DUDIK_SU: "floor",
    KAPPA: "exact",
    COROLLARY_REC: "exact",
    CLOSED_FORM: "ceil",
    UNGAPPED_REFERENCE: "none",
    EXACT: "exact",
}
FORMULA_IDS = tuple(_ROUNDING)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: parameters, value, formula, and its rounding rule."""

    value: Union[int, float]
    formula_id: str
    k: Optional[int] = None
    s: Optional[int] = None
    k1: Optional[int] = None
    k2: Optional[int] = None
    note: str = ""

    def __post_init__(self):
        if self.formula_id not in FORMULA_IDS:
            raise ValueError(f"unknown formula_id {self.formula_id!r}")

    @property
    def rounding(self) -> str:
        return _ROUNDING[self.formula_id]

    def to_record(self) -> dict:
        rec = {
            "value": self.value,
            "formula_id": self.formula_id,
            "rounding": self.rounding,
        }
        for name in ("k", "s", "k1", "k2"):
            v = getattr(self, name)
            if v is not None:
                rec[name] = v
        if self.note:
            rec["note"] = self.note
        return rec


def padded_bound(k: int) -> int:
    """4(2^k - 1) - 2: length of the trimmed padded construction."""
    return s_padded_bound(2, k)


def s_padded_bound(s: int, k: int) -> int:
    """(5s-2)*2^(k-1) - 5s + 4: trimmed s-padded construction length."""
    if s < 2:
        raise ValueError(f"need s >= 2, got {s}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return (5 * s - 2) * 2 ** (k - 1) - 5 * s + 4


def kappa(k1: int, k2: int) -> int:
    """k1^2 + k2^2*(k2-1)/2; the half is always integral."""
    if k2 < 2:
        raise ValueError(f"need k2 >= 2, got {k2}")
    return k1 * k1 + k2 * k2 * (k2 - 1) // 2


def dudik_su_bound(k1: int, k2: int) -> int:
    """floor(kappa * (lg kappa + lg lg kappa + 1)), lg = log base 2."""
    if not k1 >= k2 >= 2:
        raise ValueError(f"need k1 >= k2 >= 2, got k1={k1}, k2={k2}")
    kap = kappa(k1, k2)
    lg = math.log2(kap)
    return math.floor(kap * (lg + math.log2(lg) + 1.0))


def corollary_rec_bound(K: int) -> int:
    """Recursive bound: base 4(2^K - 1) for K <= 4, else min of base and
    (corollary_rec_bound(k) + 2) * dudik_su_bound(2k+sigma, k+sigma) with
    k = floor(K/3), sigma = K mod 3 (the unique decomposition K = 3k + sigma
    with sigma in {0,1,2}).
    """
    if K < 1:
        raise ValueError(f"need K >= 1, got {K}")
    base = 4 * (2**K - 1)
    if K <= 4:
        return base
    k, sigma = K // 3, K % 3
    return min(base, (corollary_rec_bound(k) + 2) * dudik_su_bound(2 * k + sigma, k + sigma))


def closed_form_bound(k: int) -> int:
    """ceil(1.482 * 1.26^k * k^3 * log3(k/3) - 2), valid for k >= 28."""
    if k < 28:
        raise ValueError(
            f"the closed form applies for k >= 28 (got {k}); use padded_bound"
        )
    raw = 1.482 * 1.26**k * k**3 * math.log(k / 3, 3) - 2.0
    return math.ceil(raw)


def ungapped_reference_bound(k: int) -> float:
    """1.2 * Gamma(log3 k) * 3^((3/2)log3^2 k - (1/2)log3 k), for k >= 85.

    Classical (gap-free) reference value, for comparison output only.
    """
    if k < 85:
        raise ValueError(f"the reference formula applies for k >= 85, got {k}")
    t = math.log(k, 3)
    return 1.2 * math.gamma(t) * 3.0 ** (1.5 * t * t - 0.5 * t)


_EXACT_SMALL = {2: 6, 3: 13, 4: 24}


def best_bound(k: int) -> BoundReport:
    """Summary-table row for one k: exact value, padded formula, or closed form."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if k in _EXACT_SMALL:
        return BoundReport(
            value=_EXACT_SMALL[k],
            formula_id=EXACT,
            k=k,
            note="exhaustive-search value",
        )
    if k <= 27:
        return BoundReport(
            value=4 * (2**k - 1),
            formula_id=PADDED,
            k=k,
            note=f"table prints 4(2^k-1); the trimmed construction gives {padded_bound(k)}",
        )
    return BoundReport(value=closed_form_bound(k), formula_id=CLOSED_FORM, k=k)


def summary_table() -> list:
    """best_bound rows for k = 2..10."""
    return [best_bound(k) for k in range(2, 11)]


def table2() -> list:
    """Closed-form rows for k = 28..33 (the six reference columns)."""
    return [BoundReport(closed_form_bound(k), CLOSED_FORM, k=k) for k in range(28, 34)]
