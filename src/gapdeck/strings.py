"""Binary and wildcard string representations and elementary transforms.

Binary strings are tuples of 0/1 ints; wildcard strings are plain str over
the alphabet {X, Y, J}. Both are immutable, so every function here is pure.
A one-bit puncture is a plain slice: x[1:], x[:-1] or x[1:-1].
"""
from __future__ import annotations

_WILDCARD_ALPHABET = frozenset("XYJ")


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


def parse_wildcard(text: str) -> str:
    """Validate a pattern over {X, Y, J} and return it.

    Raises ValueError naming the 1-based position of the first bad character.
    """
    for pos, ch in enumerate(text, start=1):
        if ch not in _WILDCARD_ALPHABET:
            raise ValueError(f"invalid wildcard symbol {ch!r} at position {pos}")
    return text
