"""Binary and wildcard string representations and elementary transforms.

Binary strings are tuples of 0/1 ints; wildcard strings are plain str over
the alphabet {X, Y, J}. Both are immutable, so every function here is pure.
"""
from __future__ import annotations

from enum import Enum

_WILDCARD_ALPHABET = frozenset("XYJ")


class Puncture(Enum):
    """Which end bits to drop before taking a deck."""

    NONE = "none"
    L = "l"
    R = "r"
    LR = "lr"


def parse_binary(text: str) -> tuple:
    """Parse a run of '0'/'1' characters into a bit tuple.

    Any other character raises ValueError naming its 1-based position.
    """
    bits = []
    for pos, ch in enumerate(text, start=1):
        if ch == "0":
            bits.append(0)
        elif ch == "1":
            bits.append(1)
        else:
            raise ValueError(f"invalid binary symbol {ch!r} at position {pos}")
    return tuple(bits)


def format_binary(x: tuple) -> str:
    """Inverse of parse_binary: bit tuple to '0'/'1' text."""
    return "".join("01"[b] for b in x)


def complement(x: tuple) -> tuple:
    """Flip every bit."""
    return tuple(1 - b for b in x)


def reverse(x: tuple) -> tuple:
    """Reverse the bit order."""
    return x[::-1]


def puncture(x: tuple, spec: Puncture) -> tuple:
    """Drop the first bit (L), last bit (R), both (LR), or neither (NONE)."""
    if spec is Puncture.NONE:
        return x
    if spec is Puncture.L:
        if len(x) < 1:
            raise ValueError("cannot puncture an empty string on the left")
        return x[1:]
    if spec is Puncture.R:
        if len(x) < 1:
            raise ValueError("cannot puncture an empty string on the right")
        return x[:-1]
    if spec is Puncture.LR:
        if len(x) < 2:
            raise ValueError("need length >= 2 to puncture both ends")
        return x[1:-1]
    raise ValueError(f"unknown puncture spec {spec!r}")


def parse_wildcard(text: str) -> str:
    """Validate a pattern over {X, Y, J} and return it.

    Raises ValueError naming the 1-based position of the first bad character.
    """
    for pos, ch in enumerate(text, start=1):
        if ch not in _WILDCARD_ALPHABET:
            raise ValueError(f"invalid wildcard symbol {ch!r} at position {pos}")
    return text
