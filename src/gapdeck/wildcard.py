"""Wildcard-pattern machinery: U-sets, occurrence counts, and the substitution harness.

Patterns are strings over {X, Y, J}; J matches either letter when counting
(ungapped) subsequence occurrences in a J-free string. U_r(k) collects the
patterns of length r..k with exactly r non-J symbols; U(k1,k2) = U_1(k1) u
U_2(k2). Two J-free strings are U-equivalent when their occurrence counts
agree on every pattern of the family.

The substitution h maps a Gamma-string p to a binary string by replacing each
X with (0, x, 0) and each Y with (0, y, 0). lemma3_check evaluates, on a
concrete instance, the hypothesis flags (four-way gapped deck equality of
(x, y) at depth k; U(2k+sigma, k+sigma)-equivalence of (p, q)) and the
conclusion flags (h(p) distinct from h(q) yet gapped-deck equal at depth
3k+sigma, before and after one-bit punctures). Flags are reported exactly as
computed — the harness asserts nothing.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations, product

from gapdeck.deck import GapParams, verify_eq7
from gapdeck.deck import deck_equal  # noqa: F401 -- perfbench/tracing.py wraps this name


@dataclass(frozen=True)
class USetSpec:
    """SINGLE(r, k): U_r(k). PAIR(k1, k2): U_1(k1) united with U_2(k2)."""

    kind: str  # "single" | "pair"
    r: int = 0
    k: int = 0
    k1: int = 0
    k2: int = 0

    @classmethod
    def single(cls, r: int, k: int) -> "USetSpec":
        if not 0 <= r <= k:
            raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")
        return cls("single", r=r, k=k)

    @classmethod
    def pair(cls, k1: int, k2: int) -> "USetSpec":
        if not k1 >= k2 >= 2:
            raise ValueError(f"need k1 >= k2 >= 2, got k1={k1}, k2={k2}")
        return cls("pair", k1=k1, k2=k2)


def count_wildcard(w: str, p: str) -> int:
    """Occurrences of pattern w as a subsequence of J-free string p.

    Each J position matches either letter; dynamic program in O(|p|*|w|).
    """
    if "J" in p:
        raise ValueError("the counted-in string p must not contain wildcards")
    L = len(w)
    dp = [1] + [0] * L
    for c in p:
        for j in range(L, 0, -1):
            if w[j - 1] == "J" or w[j - 1] == c:
                dp[j] += dp[j - 1]
    return dp[L]


def _u_r(r: int, k: int) -> list:
    """All patterns of length r..k with exactly r non-J symbols, sorted."""
    out = []
    for length in range(r, k + 1):
        for spots in combinations(range(length), r):
            for letters in product("XY", repeat=r):
                chars = ["J"] * length
                for i, c in zip(spots, letters):
                    chars[i] = c
                out.append("".join(chars))
    return sorted(out, key=lambda w: (len(w), w))


def enumerate_U(spec: USetSpec) -> list:
    """The pattern family of spec, in (length, lex) order without duplicates."""
    if spec.kind == "single":
        return _u_r(spec.r, spec.k)
    if spec.kind == "pair":
        merged = set(_u_r(1, spec.k1)) | set(_u_r(2, spec.k2))
        return sorted(merged, key=lambda w: (len(w), w))
    raise ValueError(f"unknown USetSpec kind {spec.kind!r}")


def u_equiv(p: str, q: str, spec: USetSpec) -> bool:
    """Whether counts of every family pattern agree between p and q."""
    if "J" in p or "J" in q:
        raise ValueError("u_equiv compares J-free strings")
    return all(count_wildcard(w, p) == count_wildcard(w, q) for w in enumerate_U(spec))


def pad_zero(x: tuple) -> tuple:
    """One 0 appended at each end: x -> (0, x, 0)."""
    return (0,) + tuple(x) + (0,)


def substitute(p: str, x: tuple, y: tuple) -> tuple:
    """Replace each X of p by (0, x, 0) and each Y by (0, y, 0), concatenated."""
    if "J" in p:
        raise ValueError("substitution is defined for J-free strings only")
    x0, y0 = pad_zero(x), pad_zero(y)
    out: tuple = ()
    for c in p:
        out += x0 if c == "X" else y0
    return out


@dataclass(frozen=True)
class Lemma3Instance:
    """A concrete substitution-harness instance (x, y, p, q, k, sigma)."""

    x: tuple
    y: tuple
    p: str
    q: str
    k: int
    sigma: int

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal lengths")
        if self.x == self.y:
            raise ValueError("x and y must be distinct")
        if len(self.p) != len(self.q):
            raise ValueError("p and q must have equal lengths")
        if self.p == self.q:
            raise ValueError("p and q must be distinct")
        if "J" in self.p or "J" in self.q:
            raise ValueError("p and q must be J-free")
        if self.sigma not in (0, 1, 2):
            raise ValueError(f"sigma must be 0, 1, or 2, got {self.sigma}")
        if self.k < 1:
            raise ValueError(f"depth k must be >= 1, got {self.k}")
        if self.k + self.sigma < 2:
            raise ValueError(
                "k + sigma < 2: the PAIR family needs k2 >= 2; "
                "no such instance is checkable"
            )


@dataclass(frozen=True)
class Lemma3Report:
    """Hypothesis and conclusion flags for one instance, all exact."""

    hypothesis_eq7: bool
    hypothesis_uequiv: bool
    distinct: bool
    conclusion_plain: bool
    conclusion_l: bool
    conclusion_r: bool
    conclusion_lr: bool
    depth: int
    mode = "exact"  # not a field: every flag is exact; the record keeps the key

    @property
    def hypotheses_true(self) -> bool:
        return self.hypothesis_eq7 and self.hypothesis_uequiv

    @property
    def conclusions_true(self) -> bool:
        return (
            self.distinct
            and self.conclusion_plain
            and self.conclusion_l
            and self.conclusion_r
            and self.conclusion_lr
        )

    def to_record(self) -> dict:
        return {**asdict(self), "mode": self.mode, "hypotheses_true": self.hypotheses_true,
                "conclusions_true": self.conclusions_true}


def lemma3_check(inst: Lemma3Instance) -> Lemma3Report:
    """Evaluate all hypothesis and conclusion flags for one instance.

    The four conclusion decks are compared at depth 3k+sigma by one
    verify_eq7 call, exact at any length.
    """
    params = GapParams(2, inst.k)
    hyp_a = verify_eq7(inst.x, inst.y, params).all_equal
    hyp_b = u_equiv(inst.p, inst.q, USetSpec.pair(2 * inst.k + inst.sigma, inst.k + inst.sigma))

    hp = substitute(inst.p, inst.x, inst.y)
    hq = substitute(inst.q, inst.x, inst.y)
    depth = 3 * inst.k + inst.sigma
    concl = verify_eq7(hp, hq, GapParams(2, depth))

    return Lemma3Report(
        hypothesis_eq7=hyp_a,
        hypothesis_uequiv=hyp_b,
        distinct=hp != hq,
        conclusion_plain=concl.plain_equal,
        conclusion_l=concl.l_equal,
        conclusion_r=concl.r_equal,
        conclusion_lr=concl.lr_equal,
        depth=depth,
    )
