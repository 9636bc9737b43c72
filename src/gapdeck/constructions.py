"""Explicit confusable-pair families: Morse-Thue recursions and exact-deck strings.

classical_mt: the swap-concatenation recursion (x,y) -> (xy, yx) starting from
((0,1),(1,0)); level k gives classical k-deck-equal pairs of length 2^k.

padded_mt: the zero-padded variant for gapped decks: level-1 pair
(0,0,1,0)/(0,1,0,0), then x' = (0, x, 0, 0, y, 0) and y' symmetrically. The
buffer zeros prevent a gapped subsequence from straddling block boundaries
illegally; level k satisfies the full four-way (plain + LR/L/R punctured)
gapped deck equality at depth k, length 4(2^k - 1). Trimming the outer zeros
keeps plain deck equality at length 4(2^k - 1) - 2.

s_padded_mt: the same idea for general gap s >= 2: base pair 0^s 1 0^{s-1} /
0^{s-1} 1 0^s, recursion pads with 0^{s-1} outside and 0^s between halves.
Untrimmed length (5s-2)2^{k-1} - 3s + 2; trimming s-1 zeros per end gives
(5s-2)2^{k-1} - 5s + 4; padded_mt and padded_mt_trimmed are its s = 2 case.
The base pair and recursion are verified empirically by the test suite, not
assumed.

exact_deck_family: interleaves a length-k seed z with arbitrary fill bits,
one fill between consecutive seed symbols at gap 2 (s-1 fills at gap s), so
the only depth-k gapped subsequence is z itself; any two fill choices share
the exact deck D^(k).
"""
from __future__ import annotations

from dataclasses import dataclass

from gapdeck.deck import GapParams

CLASSICAL_K_DECK = "classical_k_deck"
EQ7_FULL = "eq7_full"
GAPPED_FULL_DECK = "gapped_full_deck"


@dataclass(frozen=True)
class ConstructionPair:
    """A constructed pair of equal-length distinct strings and what it claims."""

    x: tuple
    y: tuple
    params: GapParams
    claimed_property: str
    trimmed: bool = False

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise ValueError("construction pairs must have equal lengths")
        if self.x == self.y:
            raise ValueError("construction pairs must be distinct")


def classical_mt(k: int) -> ConstructionPair:
    """Level-k swap-concatenation pair: classical k-deck equal, length 2^k."""
    if k < 1:
        raise ValueError(f"depth k must be >= 1, got {k}")
    x, y = (0, 1), (1, 0)
    for _ in range(k - 1):
        x, y = concat_swap(x, y)
    return ConstructionPair(x, y, GapParams(1, k), CLASSICAL_K_DECK)


def concat_swap(x: tuple, y: tuple) -> tuple:
    """One recursion step: (x, y) -> (xy, yx)."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    return x + y, y + x


def padded_mt(k: int) -> ConstructionPair:
    """Level-k zero-padded pair: four-way gapped deck equality, length 4(2^k - 1)."""
    return s_padded_mt(2, k)


def padded_mt_trimmed(k: int) -> ConstructionPair:
    """padded_mt with outer zeros removed: plain deck equality, length 4(2^k-1)-2."""
    return s_padded_mt(2, k, trimmed=True)


def s_padded_mt(s: int, k: int, trimmed: bool = False) -> ConstructionPair:
    """General-gap padded pair; trimmed drops s-1 zeros from each end."""
    if s < 2:
        raise ValueError(f"gap s must be >= 2 here (s=1 has no padding), got {s}")
    if k < 1:
        raise ValueError(f"depth k must be >= 1, got {k}")
    outer, inner = (0,) * (s - 1), (0,) * s
    x = (0,) * s + (1,) + (0,) * (s - 1)
    y = (0,) * (s - 1) + (1,) + (0,) * s
    for _ in range(k - 1):
        x, y = outer + x + inner + y + outer, outer + y + inner + x + outer
    if trimmed:
        cut = s - 1
        x, y = x[cut: len(x) - cut], y[cut: len(y) - cut]
        return ConstructionPair(x, y, GapParams(s, k), GAPPED_FULL_DECK, trimmed=True)
    return ConstructionPair(x, y, GapParams(s, k), EQ7_FULL)


def exact_deck_family(z: tuple, fills: tuple, s: int = 2) -> tuple:
    """Interleave seed z with fill bits so z is the only depth-k subsequence.

    With |z| = k, each of the k-1 slots between seed symbols takes s-1 fill
    bits (fills supplies them slot by slot), giving length k + (k-1)(s-1) =
    s(k-1)+1 — the first length at which a depth-k s-gapped subsequence
    exists at all.
    """
    if s < 1:
        raise ValueError(f"gap s must be >= 1, got {s}")
    k = len(z)
    if k < 1:
        raise ValueError("seed z must be nonempty")
    need = (k - 1) * (s - 1)
    if len(fills) != need:
        raise ValueError(f"need exactly {need} fill bits for |z|={k}, s={s}; got {len(fills)}")
    out = [z[0]]
    pos = 0
    for j in range(1, k):
        out.extend(fills[pos: pos + s - 1])
        pos += s - 1
        out.append(z[j])
    return tuple(out)
