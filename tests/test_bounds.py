import pytest

from gapdeck.bounds import (
    CLOSED_FORM,
    EXACT,
    MINIMA,
    PADDED,
    BoundReport,
    best_bound,
    closed_form_bound,
    corollary_rec_bound,
    dudik_su_bound,
    kappa,
    padded_bound,
    s_padded_bound,
    summary_table,
    table2,
    ungapped_reference_bound,
)
from gapdeck.constructions import padded_mt_trimmed, s_padded_mt

TABLE2_VALUES = {
    28: 42742211,
    29: 60773950,
    30: 86039831,
    31: 121319982,
    32: 170424514,
    33: 238563374,
}


def test_padded_bound_values():
    assert padded_bound(4) == 58
    assert padded_bound(2) == 10
    assert padded_bound(1) == 2
    with pytest.raises(ValueError):
        padded_bound(0)


def test_s_padded_bound_values():
    for k in range(1, 9):
        assert s_padded_bound(2, k) == padded_bound(k)
    assert s_padded_bound(3, 1) == 2
    assert s_padded_bound(3, 3) == 41
    with pytest.raises(ValueError):
        s_padded_bound(1, 3)


def test_bounds_match_construction_lengths():
    for k in range(1, 7):
        assert padded_bound(k) == len(padded_mt_trimmed(k).x)
    for s in (2, 3, 4):
        for k in range(1, 6):
            assert s_padded_bound(s, k) == len(s_padded_mt(s, k, trimmed=True).x)


def test_kappa_values():
    assert kappa(2, 2) == 6
    assert kappa(3, 2) == 11
    assert kappa(4, 3) == 25
    for k1, k2 in ((3, 1), (-5, 2), (2, 3)):  # needs k1 >= k2 >= 2, as dudik_su_bound does
        with pytest.raises(ValueError, match="need k1 >= k2 >= 2"):
            kappa(k1, k2)


def test_dudik_bound_values():
    assert dudik_su_bound(2, 2) == 29
    assert dudik_su_bound(3, 2) == 68
    assert dudik_su_bound(9, 5) == 1421
    # nondecreasing in k1 for fixed k2
    values = [dudik_su_bound(k1, 3) for k1 in range(3, 12)]
    assert values == sorted(values)
    with pytest.raises(ValueError):
        dudik_su_bound(2, 3)


def test_corollary_recursion():
    assert corollary_rec_bound(3) == 28
    assert corollary_rec_bound(4) == 60
    # K=13 decomposes as k=4, sigma=1: min(4(2^13-1), (60+2)*dudik(9,5))
    assert corollary_rec_bound(13) == min(4 * (2**13 - 1), 62 * 1421)
    assert corollary_rec_bound(13) == 32764
    with pytest.raises(ValueError):
        corollary_rec_bound(0)


def test_closed_form_reproduces_reference_values():
    for k, value in TABLE2_VALUES.items():
        got = closed_form_bound(k)
        assert abs(got - value) <= 2
        assert got == value  # ceil rounding hits every entry exactly
    with pytest.raises(ValueError):
        closed_form_bound(27)


def test_best_bound_table():
    assert best_bound(2).value == 6
    assert best_bound(3).value == 13
    assert best_bound(4).value == 24
    assert best_bound(4).formula_id == EXACT
    assert best_bound(10).value == 4092
    assert best_bound(10).formula_id == PADDED
    # printed table is two looser than the trimmed construction; the note says so
    assert str(padded_bound(5)) in best_bound(5).note
    assert best_bound(30).value == 86039831
    assert best_bound(30).formula_id == CLOSED_FORM
    with pytest.raises(ValueError):
        best_bound(1)


def _exact_G(s):
    """The ledger's exact G_s(k) minima, {k: n}."""
    return {m.params[1]: m.n for m in MINIMA if m.which == "G" and m.params[0] == s and m.exact}


def test_search_values_respect_bounds():
    # exhaustively computed minima (the ledger) against the trimmed constructions
    assert list(_exact_G(2)) == [2, 3, 4]
    for s in (2, 3):
        for k, n in _exact_G(s).items():
            assert n <= s_padded_bound(s, k)


def test_summary_table_shape():
    rows = summary_table()
    assert [r.k for r in rows] == list(range(2, 11))
    assert [r.value for r in rows][:3] == list(_exact_G(2).values())
    assert all(r.value >= 1 for r in rows)


def test_table2_shape():
    rows = table2()
    assert [r.k for r in rows] == list(TABLE2_VALUES)
    assert [r.value for r in rows] == list(TABLE2_VALUES.values())
    assert all(r.rounding == "ceil" for r in rows)


def test_ungapped_reference():
    v = ungapped_reference_bound(85)
    assert v > 1e10
    assert ungapped_reference_bound(100) > v
    with pytest.raises(ValueError):
        ungapped_reference_bound(84)


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport(value=1, formula_id="MADE_UP")
    rec = BoundReport(value=58, formula_id=PADDED, k=4).to_record()
    assert rec == {"value": 58, "formula_id": PADDED, "rounding": "exact", "k": 4}
