"""Command-line entry point: every library operation behind one `gapdeck` command.

Exit status convention: 0 = computed and the property holds (or plain output
was produced), 1 = computed and the property does NOT hold (e.g. `equal`
finds differing decks, a search exhausts its range without a collision),
2 = usage or computation error (a refused memory allocation included: it
decides nothing). Structured output (--json) uses the stable
versioned envelope {"schema": "gapdeck/1", "command", "params", "result"} and
is byte-identical across runs, including parallel searches with different
worker counts. Progress goes to stderr via logging; results go to stdout.

Binary-string arguments are accepted inline (tokens of 0/1) or as paths to
files of 0/1 lines; a token that is not purely 0/1 is treated as a path.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from concurrent.futures import BrokenExecutor  # raised when a search worker dies

from gapdeck import bounds as bounds_mod
from gapdeck import oracle
from gapdeck.constructions import (
    classical_mt,
    exact_deck_family,
    padded_mt,
    padded_mt_trimmed,
    s_padded_mt,
)
from gapdeck.deck import (
    ExactOverflowError,
    GapParams,
    deck_equal,
    enumerate_deck,
    verify_eq7,
)
from gapdeck.search import search_G, search_G_star, search_exact_D, search_SU
from gapdeck.strings import format_binary, parse_binary, parse_wildcard
from gapdeck.wildcard import (
    Lemma3Instance,
    USetSpec,
    count_wildcard,
    lemma3_check,
    substitute,
    u_equiv,
)

SCHEMA = "gapdeck/1"
log = logging.getLogger("gapdeck.cli")


def _resolve_binary(tokens, count=None) -> list:
    """Each token is an inline 0/1 string or a path to a file of 0/1 lines.

    Refuses no strings at all and, when count is given, any other number.
    """
    out = []
    for tok in tokens:
        if tok and set(tok) <= {"0", "1"}:
            out.append(parse_binary(tok))
        else:
            with open(tok) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        out.append(parse_binary(line))
    if not out:
        raise ValueError("needs at least one string, got none")
    if count not in (None, len(out)):
        raise ValueError(f"expected exactly {count} strings, got {len(out)}")
    return out


def _need(args, *flags) -> None:
    """Refuse a missing option as a usage error: ValueError("search G needs --k")."""
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        words = (getattr(args, a, None) for a in ("command", "which", "family", "table", "op"))
        raise ValueError(f"{' '.join(filter(None, words))} needs {', '.join(missing)}")


def _emit(args, command: str, params: dict, result, text_lines) -> None:
    if args.json:
        envelope = {
            "schema": SCHEMA,
            "command": command,
            "params": params,
            "result": result,
        }
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _deck_listing(args, enumerate_fn) -> tuple:
    """The records and text lines of each string's nonzero deck entries."""
    records, lines = [], []
    for x in _resolve_binary(args.strings):
        entries = enumerate_fn(x, GapParams(args.s, args.k))
        records.append(
            {
                "string": format_binary(x),
                "deck": [[format_binary(w), c] for w, c in entries],
            }
        )
        lines.extend(f"{format_binary(w)} {c}" for w, c in entries)
    return records, lines


def cmd_deck(args) -> int:
    _emit(args, "deck", {"s": args.s, "k": args.k}, *_deck_listing(args, enumerate_deck))
    return 0


def cmd_equal(args) -> int:
    params = GapParams(args.s, args.k)
    x, y = _resolve_binary(args.strings, 2)
    eq = deck_equal(x, y, params, args.mode)
    _emit(
        args,
        "equal",
        {"s": args.s, "k": args.k, "mode": args.mode},
        {"equal": eq},
        ["true" if eq else "false"],
    )
    return 0 if eq else 1


def cmd_eq7(args) -> int:
    params = GapParams(args.s, args.k)
    x, y = _resolve_binary(args.strings, 2)
    rep = verify_eq7(x, y, params, args.mode)
    _emit(
        args,
        "eq7",
        {"s": args.s, "k": args.k, "mode": args.mode},
        rep.to_record(),
        [
            f"plain={str(rep.plain_equal).lower()} lr={str(rep.lr_equal).lower()} "
            f"l={str(rep.l_equal).lower()} r={str(rep.r_equal).lower()} "
            f"all={str(rep.all_equal).lower()}"
        ],
    )
    return 0 if rep.all_equal else 1


def cmd_construct(args) -> int:
    _need(args, "z" if args.family == "exact-family" else "k")
    if args.family == "exact-family":
        x = exact_deck_family(parse_binary(args.z), parse_binary(args.fills), args.s)
        _emit(
            args,
            "construct",
            {"family": args.family, "s": args.s},
            {"string": format_binary(x)},
            [format_binary(x)],
        )
        return 0
    if args.family == "classical":
        pair = classical_mt(args.k)
    elif args.family == "padded":
        pair = padded_mt_trimmed(args.k) if args.trimmed else padded_mt(args.k)
    else:  # s-padded
        pair = s_padded_mt(args.s, args.k, trimmed=args.trimmed)
    _emit(
        args,
        "construct",
        {"family": args.family, "s": pair.params.s, "k": pair.params.k,
         "trimmed": pair.trimmed},
        {
            "x": format_binary(pair.x),
            "y": format_binary(pair.y),
            "length": len(pair.x),
            "property": pair.claimed_property,
        },
        [format_binary(pair.x), format_binary(pair.y)],
    )
    return 0


def _report_lines(report) -> list:
    lines = [f"n={report.n if report.n is not None else 'none'}"]
    lines.extend(f"witness {x} {y}" for x, y in report.to_record()["witnesses"])
    if report.scanned_lengths:
        lines.append(
            f"scanned {report.scanned_lengths[0]}..{report.scanned_lengths[-1]}"
        )
    lines.extend(f"# {note}" for note in report.notes)
    return lines


def cmd_search(args) -> int:
    if args.which == "SU":
        _need(args, "k1")
        fn, scan = search_SU, (args.k1, args.k2, args.m_max)
        params = {"which": "SU", "k1": args.k1, "k2": args.k2, "m_max": args.m_max}
    else:
        _need(args, "k")
        fn = {"G": search_G, "Gstar": search_G_star, "exactD": search_exact_D}[args.which]
        scan = GapParams(args.s, args.k), args.n_max
        params = {"which": args.which, "s": args.s, "k": args.k, "n_max": args.n_max,
                  "mode": "exact"}  # searches always confirm exactly
    report = fn(*scan, workers=args.workers, checkpoint=args.checkpoint)
    _emit(args, "search", params, report.to_record(), _report_lines(report))
    return 0 if report.n is not None else 1


def cmd_wildcard(args) -> int:
    if args.op == "count":
        _need(args, "w", "p")
        value = count_wildcard(parse_wildcard(args.w), parse_wildcard(args.p))
        _emit(args, "wildcard", {"op": "count", "w": args.w, "p": args.p},
              {"count": value}, [str(value)])
        return 0
    if args.op == "uequiv":
        _need(args, "p", "q", *(("k2",) if args.k1 is not None else ("r", "k")))
        if args.k1 is not None:
            spec = USetSpec.pair(args.k1, args.k2)
            fam = {"k1": args.k1, "k2": args.k2}
        else:
            spec = USetSpec.single(args.r, args.k)
            fam = {"r": args.r, "k": args.k}
        ok = u_equiv(parse_wildcard(args.p), parse_wildcard(args.q), spec)
        _emit(args, "wildcard", {"op": "uequiv", **fam},
              {"equivalent": ok}, ["true" if ok else "false"])
        return 0 if ok else 1
    if args.op == "substitute":
        _need(args, "p", "x", "y")
        out = substitute(
            parse_wildcard(args.p), parse_binary(args.x), parse_binary(args.y)
        )
        _emit(args, "wildcard", {"op": "substitute"},
              {"string": format_binary(out)}, [format_binary(out)])
        return 0
    _need(args, "x", "y", "p", "q", "k")  # lemma3
    inst = Lemma3Instance(
        x=parse_binary(args.x),
        y=parse_binary(args.y),
        p=parse_wildcard(args.p),
        q=parse_wildcard(args.q),
        k=args.k,
        sigma=args.sigma,
    )
    rep = lemma3_check(inst)
    rec = rep.to_record()
    lines = [f"{key}={str(val).lower()}" for key, val in sorted(rec.items())]
    _emit(args, "wildcard", {"op": "lemma3", "k": args.k, "sigma": args.sigma},
          rec, lines)
    return 0 if rep.hypotheses_true and rep.conclusions_true else 1


def _bound_line(rec: dict) -> str:
    parts = [f"{key}={rec[key]}" for key in ("k", "s", "k1", "k2") if key in rec]
    parts.append(f"value={rec['value']}")
    parts.append(f"formula={rec['formula_id']}")
    parts.append(f"rounding={rec['rounding']}")
    if "note" in rec:
        parts.append(f"# {rec['note']}")
    return " ".join(parts)


def cmd_bounds(args) -> int:
    if args.table == "table1":
        rows = bounds_mod.summary_table()
    elif args.table == "table2":
        rows = bounds_mod.table2()
    else:  # single
        rows = [_single_bound(args)]
    recs = [r.to_record() for r in rows]
    _emit(args, "bounds", {"table": args.table}, recs,
          [_bound_line(rec) for rec in recs])
    return 0


# --formula: (function, formula_id, its options in argument order); "best"
# picks the summary-table row, so its function returns the whole report
_FORMULAS = {
    "padded": (bounds_mod.padded_bound, bounds_mod.PADDED, ("k",)),
    "s-padded": (bounds_mod.s_padded_bound, bounds_mod.S_PADDED, ("s", "k")),
    "kappa": (bounds_mod.kappa, bounds_mod.KAPPA, ("k1", "k2")),
    "dudik": (bounds_mod.dudik_su_bound, bounds_mod.DUDIK_SU, ("k1", "k2")),
    "corollary": (bounds_mod.corollary_rec_bound, bounds_mod.COROLLARY_REC, ("k",)),
    "closed-form": (bounds_mod.closed_form_bound, bounds_mod.CLOSED_FORM, ("k",)),
    "ungapped-ref": (bounds_mod.ungapped_reference_bound, bounds_mod.UNGAPPED_REFERENCE, ("k",)),
    "best": (bounds_mod.best_bound, None, ("k",)),
}


def _single_bound(args) -> bounds_mod.BoundReport:
    fn, formula_id, names = _FORMULAS[args.formula]
    _need(args, *names)
    values = {name: getattr(args, name) for name in names}
    if formula_id is None:
        return fn(*values.values())
    return bounds_mod.BoundReport(value=fn(*values.values()), formula_id=formula_id, **values)


def cmd_oracle(args) -> int:
    params = GapParams(args.s, args.k)
    if args.op == "deck":
        _emit(args, "oracle", {"op": "deck", "s": args.s, "k": args.k},
              *_deck_listing(args, oracle.enumerate_deck_naive))
        return 0
    if args.op == "equal":
        x, y = _resolve_binary(args.strings, 2)
        eq = oracle.deck_equal_naive(x, y, params)
        _emit(args, "oracle", {"op": "equal", "s": args.s, "k": args.k},
              {"equal": eq}, ["true" if eq else "false"])
        return 0 if eq else 1
    _need(args, "n")  # collision
    if args.strings:
        raise ValueError(f"oracle collision takes no strings (it enumerates length --n), "
                         f"got {' '.join(args.strings)}")
    pair = oracle.find_collision_naive(args.n, params)
    found = pair is not None
    rec = {
        "n": args.n,
        "witnesses": [[format_binary(pair[0]), format_binary(pair[1])]] if found else [],
    }
    lines = [f"witness {format_binary(pair[0])} {format_binary(pair[1])}"] if found else ["none"]
    _emit(args, "oracle", {"op": "collision", "s": args.s, "k": args.k, "n": args.n},
          rec, lines)
    return 0 if found else 1


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the versioned structured record instead of text")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="progress logging on stderr")
    deck_opts = argparse.ArgumentParser(add_help=False)  # deck, equal, eq7, oracle
    deck_opts.add_argument("--s", type=int, default=2, help="minimum index gap (default 2)")
    deck_opts.add_argument("--k", type=int, required=True, help="maximum subsequence length")

    parser = argparse.ArgumentParser(
        prog="gapdeck",
        description="Gapped-deck toolkit: decks, confusable-pair constructions, "
                    "exhaustive minimal-length searches, wildcard equivalence, "
                    "and upper-bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in (
        ("deck", cmd_deck, "enumerate the gapped deck of a string"),
        ("equal", cmd_equal, "test gapped-deck equality of two strings"),
        ("eq7", cmd_eq7, "four-way deck equality: plain and all one-bit punctures"),
    ):
        p = sub.add_parser(name, parents=[common, deck_opts], help=help_)
        p.add_argument("strings", nargs="+", help="inline 0/1 string or file of 0/1 lines")
        if name != "deck":
            p.add_argument("--mode", choices=["exact", "fingerprint"], default="exact")
        p.set_defaults(func=func)

    p = sub.add_parser("construct", parents=[common],
                       help="emit a confusable-pair construction")
    p.add_argument("family",
                   choices=["classical", "padded", "s-padded", "exact-family"])
    p.add_argument("--k", type=int, help="deck depth of the claimed equality")
    p.add_argument("--s", type=int, default=2, help="gap (s-padded / exact-family)")
    p.add_argument("--trimmed", action="store_true",
                   help="drop the shared end bits (padded / s-padded)")
    p.add_argument("--z", help="exact-family: the prescribed depth-k subsequence")
    p.add_argument("--fills", default="", help="exact-family: the (k-1)(s-1) fill bits")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", parents=[common],
                       help="exhaustive minimal confusable-length search")
    p.add_argument("which", choices=["G", "Gstar", "exactD", "SU"])
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int)
    p.add_argument("--n-max", type=int, default=24, help="largest length to scan")
    p.add_argument("--k1", type=int, help="SU: primary depth")
    p.add_argument("--k2", type=int, default=None, help="SU: secondary depth")
    p.add_argument("--m-max", type=int, default=16, help="SU: largest length to scan")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint", default=None,
                   help="directory of per-range hash sidecars, which a resume reads, "
                        "and search.log, an append-only progress record")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("wildcard", parents=[common],
                       help="wildcard pattern counts, U-equivalence, substitution")
    p.add_argument("op", choices=["count", "uequiv", "substitute", "lemma3"])
    p.add_argument("--w", help="count: pattern over X/Y/J")
    p.add_argument("--p", help="J-free string over X/Y")
    p.add_argument("--q", help="second J-free string (uequiv / lemma3)")
    p.add_argument("--r", type=int, help="uequiv: non-wildcard count (single form)")
    p.add_argument("--k", type=int, help="uequiv single form: max length; lemma3: depth")
    p.add_argument("--k1", type=int, help="uequiv pair form")
    p.add_argument("--k2", type=int, help="uequiv pair form")
    p.add_argument("--x", help="lemma3 / substitute: first binary string")
    p.add_argument("--y", help="lemma3 / substitute: second binary string")
    p.add_argument("--sigma", type=int, default=0, help="lemma3: depth offset")
    p.set_defaults(func=cmd_wildcard)

    p = sub.add_parser("bounds", parents=[common],
                       help="closed-form and recursive upper bounds")
    p.add_argument("table", choices=["single", "table1", "table2"])
    p.add_argument("--formula", default="best", choices=list(_FORMULAS))
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", parents=[common, deck_opts],
                       help="naive enumeration cross-checks (slow, reference only)")
    p.add_argument("op", choices=["deck", "equal", "collision"])
    p.add_argument("strings", nargs="*")
    p.add_argument("--n", type=int, help="collision: string length to enumerate")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, ExactOverflowError, BrokenExecutor, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
