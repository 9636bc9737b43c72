import pytest

from gapdeck.strings import (
    Puncture,
    complement,
    format_binary,
    parse_binary,
    parse_wildcard,
    puncture,
    reverse,
)


def test_parse_format_roundtrip():
    for text in ("0", "1", "010011", "1101111010111"):
        assert format_binary(parse_binary(text)) == text


def test_parse_binary_rejects_bad_characters():
    with pytest.raises(ValueError) as err:
        parse_binary("0102")
    assert "position 4" in str(err.value)


def test_parse_binary_rejects_empty_and_spaces():
    with pytest.raises(ValueError):
        parse_binary("01 0")


def test_complement_and_reverse():
    x = parse_binary("00101")
    assert complement(x) == (1, 1, 0, 1, 0)
    assert reverse(x) == (1, 0, 1, 0, 0)
    assert complement(complement(x)) == x
    assert reverse(reverse(x)) == x


def test_puncture_variants():
    x = parse_binary("01101")
    assert puncture(x, Puncture.NONE) == x
    assert puncture(x, Puncture.L) == (1, 1, 0, 1)
    assert puncture(x, Puncture.R) == (0, 1, 1, 0)
    assert puncture(x, Puncture.LR) == (1, 1, 0)


def test_puncture_length_requirements():
    assert puncture((1,), Puncture.L) == ()
    with pytest.raises(ValueError):
        puncture((), Puncture.L)
    with pytest.raises(ValueError):
        puncture((1,), Puncture.LR)


def test_parse_wildcard():
    assert parse_wildcard("XYJ") == "XYJ"
    with pytest.raises(ValueError):
        parse_wildcard("XZY")
