"""The computed-minima ledger, bounds.MINIMA, against the program and README.

Every witness holds under an independent reference. Every exact entry is
rescanned by the command that certifies it (the three long scans under
`-m slow` only), except SU(6,4), which follows from SU(6,3). Lower bounds
are not rescanned: G_3(4) at n = 29 needs about 4.2 GB, and SU(7,4) at
m = 28 about 4.4 GB. README's "Computed minima" table is the ledger's rows.
"""
import json
import pathlib

import pytest

from gapdeck import oracle
from gapdeck.bounds import MINIMA
from gapdeck.cli import main
from gapdeck.deck import GapParams
from gapdeck.strings import parse_binary
from gapdeck.wildcard import USetSpec, u_equiv

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
LEDGER = {(m.which, m.params): m for m in MINIMA}
_LONG = {("G", (2, 4)), ("Gstar", (2, 4)), ("SU", (6, 3))}  # 5, 29 and 27 s on two workers
_IMPLIED = {("SU", (6, 4))}  # see test_su_6_4_follows_from_su_6_3


def _label(m) -> str:
    if m.which == "SU":
        return f"SU({','.join(str(k) for k in m.params if k is not None)})"
    name = {"G": "G", "Gstar": "G*", "exactD": "exact-D"}[m.which]
    return f"{name}_{m.params[0]}({m.params[1]})"


def _command(m) -> str:
    """The scan that certifies an entry: it finds n and the witness, or no pair."""
    if m.which == "SU":
        k1, k2 = m.params
        return f"gapdeck search SU --k1 {k1}{f' --k2 {k2}' if k2 else ''} --m-max {m.n}"
    s, k = m.params
    return f"gapdeck search {m.which} --s {s} --k {k} --n-max {m.n}"


def _rescanned(m) -> str:
    if not m.exact or (m.which, m.params) in _IMPLIED:
        return "no"
    return "`-m slow`" if (m.which, m.params) in _LONG else "yes"


def _equal_naive(m, x, y) -> bool:
    """Whether the witness pair is equal under the entry's independent reference."""
    if m.which == "SU":
        k1, k2 = m.params
        return u_equiv(x, y, USetSpec.single(1, k1) if k2 is None else USetSpec.pair(k1, k2))
    params = GapParams(*m.params)
    x, y = parse_binary(x), parse_binary(y)
    if m.which == "exactD":
        return oracle.exact_deck_equal_naive(x, y, params)
    if m.which == "Gstar":  # the plain deck and the L, R and LR punctures
        return all(oracle.deck_equal_naive(u, v, params)
                   for u, v in zip((x, x[1:], x[:-1], x[1:-1]), (y, y[1:], y[:-1], y[1:-1])))
    return oracle.deck_equal_naive(x, y, params)


@pytest.mark.parametrize("m", [m for m in MINIMA if m.witness],
                         ids=[_label(m) for m in MINIMA if m.witness])
def test_witness_holds_under_the_independent_reference(m):
    x, y = m.witness
    assert m.exact
    assert x < y and len(x) == len(y) == m.n
    assert _equal_naive(m, x, y)


@pytest.mark.parametrize("m", [
    pytest.param(m, id=_label(m), marks=[pytest.mark.slow] if (m.which, m.params) in _LONG else [])
    for m in MINIMA if _rescanned(m) != "no"
])
def test_rescan_finds_the_ledger_entry(capsys, m):
    code = main([*_command(m).split()[1:], "--json", "--workers", "2"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0
    assert (result["n"], tuple(result["witnesses"][0])) == (m.n, m.witness)


def test_su_6_4_follows_from_su_6_3():
    # U(6,3) is a subset of U(6,4), so every U(6,4)-equivalent pair is
    # U(6,3)-equivalent: SU(6,4) >= SU(6,3), and the smallest SU(6,3) pair,
    # once its witness check shows it U(6,4)-equivalent, is the smallest SU(6,4) pair
    a, b = LEDGER["SU", (6, 3)], LEDGER["SU", (6, 4)]
    assert (b.n, b.witness) == (a.n, a.witness)


def test_readme_table_is_the_ledger():
    section = README.read_text().split("\n## Computed minima\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")][2:]
    want = [
        f"| `{_label(m)}` | {m.n if m.exact else f'> {m.n}'} | "
        f"{' / '.join(f'`{w}`' for w in m.witness) if m.witness else 'none'} | "
        f"`{_command(m)}` | {_rescanned(m)} |"
        for m in MINIMA
    ]
    assert rows == want
