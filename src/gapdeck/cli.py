"""Command-line entry point: every library operation behind one `gapdeck` command.

Exit status convention: 0 = computed and the property holds (or plain output
was produced), 1 = computed and the property does NOT hold (e.g. `equal`
finds differing decks, a search exhausts its range without a collision),
2 = usage or computation error. Structured output (--json) uses the stable
versioned envelope {"schema": "gapdeck/1", "command", "params", "result"} and
is byte-identical across runs, including parallel searches with different
worker counts. Progress goes to stderr via logging; results go to stdout.

Binary-string arguments are accepted inline (tokens of 0/1) or as paths to
files of 0/1 lines; a token that is not purely 0/1 is treated as a path.
"""
from __future__ import annotations

import argparse
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
    DEFAULT_FINGERPRINT_PRIMES,
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


def _resolve_binary(tokens) -> list:
    """Each token is an inline 0/1 string or a path to a file of 0/1 lines."""
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
    return out


def _two_strings(tokens) -> tuple:
    xs = _resolve_binary(tokens)
    if len(xs) != 2:
        raise ValueError(f"expected exactly two strings, got {len(xs)}")
    return xs[0], xs[1]


def _primes(args) -> tuple:
    if getattr(args, "primes", None):
        return tuple(int(p) for p in args.primes.split(","))
    return DEFAULT_FINGERPRINT_PRIMES


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


def cmd_deck(args) -> int:
    params = GapParams(args.s, args.k)
    xs = _resolve_binary(args.string)
    records, lines = [], []
    for x in xs:
        entries = enumerate_deck(x, params)
        records.append(
            {
                "string": format_binary(x),
                "deck": [[format_binary(w), c] for w, c in entries],
            }
        )
        lines.extend(f"{format_binary(w)} {c}" for w, c in entries)
    _emit(args, "deck", {"s": args.s, "k": args.k}, records, lines)
    return 0


def cmd_equal(args) -> int:
    params = GapParams(args.s, args.k)
    x, y = _two_strings(args.strings)
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
    x, y = _two_strings(args.strings)
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
    for x, y in report.witnesses:
        fx = x if isinstance(x, str) else format_binary(x)
        fy = y if isinstance(y, str) else format_binary(y)
        lines.append(f"witness {fx} {fy}")
    if report.scanned_lengths:
        lines.append(
            f"scanned {report.scanned_lengths[0]}..{report.scanned_lengths[-1]}"
        )
    lines.extend(f"# {note}" for note in report.notes)
    return lines


def cmd_search(args) -> int:
    if args.which == "SU":
        report = search_SU(args.k1, args.k2, args.m_max,
                           workers=args.workers, checkpoint=args.checkpoint)
        params = {"which": "SU", "k1": args.k1, "k2": args.k2, "m_max": args.m_max}
    else:
        fn = {"G": search_G, "Gstar": search_G_star, "exactD": search_exact_D}[
            args.which
        ]
        report = fn(
            GapParams(args.s, args.k),
            args.n_max,
            workers=args.workers,
            mode=args.mode,
            checkpoint=args.checkpoint,
            primes=_primes(args),
        )
        params = {
            "which": args.which,
            "s": args.s,
            "k": args.k,
            "n_max": args.n_max,
            "mode": args.mode,
        }
    _emit(args, "search", params, report.to_record(), _report_lines(report))
    return 0 if report.n is not None else 1


def cmd_wildcard(args) -> int:
    if args.op == "count":
        value = count_wildcard(parse_wildcard(args.w), parse_wildcard(args.p))
        _emit(args, "wildcard", {"op": "count", "w": args.w, "p": args.p},
              {"count": value}, [str(value)])
        return 0
    if args.op == "uequiv":
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
        out = substitute(
            parse_wildcard(args.p), parse_binary(args.x), parse_binary(args.y)
        )
        _emit(args, "wildcard", {"op": "substitute"},
              {"string": format_binary(out)}, [format_binary(out)])
        return 0
    # lemma3
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


def _single_bound(args) -> bounds_mod.BoundReport:
    f = args.formula
    if f == "padded":
        return bounds_mod.BoundReport(
            value=bounds_mod.padded_bound(args.k), formula_id=bounds_mod.PADDED,
            k=args.k)
    if f == "s-padded":
        return bounds_mod.BoundReport(
            value=bounds_mod.s_padded_bound(args.s, args.k),
            formula_id=bounds_mod.S_PADDED, s=args.s, k=args.k)
    if f == "kappa":
        return bounds_mod.BoundReport(
            value=bounds_mod.kappa(args.k1, args.k2), formula_id=bounds_mod.KAPPA,
            k1=args.k1, k2=args.k2)
    if f == "dudik":
        return bounds_mod.BoundReport(
            value=bounds_mod.dudik_su_bound(args.k1, args.k2),
            formula_id=bounds_mod.DUDIK_SU, rounding="floor",
            k1=args.k1, k2=args.k2)
    if f == "corollary":
        return bounds_mod.BoundReport(
            value=bounds_mod.corollary_rec_bound(args.k),
            formula_id=bounds_mod.COROLLARY_REC, k=args.k)
    if f == "closed-form":
        return bounds_mod.BoundReport(
            value=bounds_mod.closed_form_bound(args.k),
            formula_id=bounds_mod.CLOSED_FORM, rounding="ceil", k=args.k)
    if f == "ungapped-ref":
        return bounds_mod.BoundReport(
            value=bounds_mod.ungapped_reference_bound(args.k),
            formula_id=bounds_mod.UNGAPPED_REFERENCE, rounding="none", k=args.k)
    return bounds_mod.best_bound(args.k)


def cmd_oracle(args) -> int:
    params = GapParams(args.s, args.k)
    if args.op == "deck":
        xs = _resolve_binary(args.strings)
        records, lines = [], []
        for x in xs:
            entries = oracle.enumerate_deck_naive(x, params)
            records.append(
                {
                    "string": format_binary(x),
                    "deck": [[format_binary(w), c] for w, c in entries],
                }
            )
            lines.extend(f"{format_binary(w)} {c}" for w, c in entries)
        _emit(args, "oracle", {"op": "deck", "s": args.s, "k": args.k},
              records, lines)
        return 0
    if args.op == "equal":
        x, y = _two_strings(args.strings)
        eq = oracle.deck_equal_naive(x, y, params)
        _emit(args, "oracle", {"op": "equal", "s": args.s, "k": args.k},
              {"equal": eq}, ["true" if eq else "false"])
        return 0 if eq else 1
    # collision
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the versioned structured record instead of text")
    common.add_argument("-v", "--verbose", action="store_true",
                        help="progress logging on stderr")

    parser = argparse.ArgumentParser(
        prog="gapdeck",
        description="Gapped-deck toolkit: decks, confusable-pair constructions, "
                    "exhaustive minimal-length searches, wildcard equivalence, "
                    "and upper-bound tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deck", parents=[common],
                       help="enumerate the gapped deck of a string")
    p.add_argument("string", nargs="+", help="inline 0/1 string or file of 0/1 lines")
    p.add_argument("--s", type=int, default=2, help="minimum index gap (default 2)")
    p.add_argument("--k", type=int, required=True, help="maximum subsequence length")
    p.set_defaults(func=cmd_deck)

    p = sub.add_parser("equal", parents=[common],
                       help="test gapped-deck equality of two strings")
    p.add_argument("strings", nargs="+")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "fingerprint"], default="exact")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("eq7", parents=[common],
                       help="four-way deck equality: plain and all one-bit punctures")
    p.add_argument("strings", nargs="+")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "fingerprint"], default="exact")
    p.set_defaults(func=cmd_eq7)

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
    p.add_argument("--mode", choices=["exact", "fingerprint"], default="exact")
    p.add_argument("--checkpoint", default=None,
                   help="directory for the resumable range log and hash sidecars")
    p.add_argument("--primes", default=None,
                   help="comma-separated fingerprint moduli override")
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
    p.add_argument("--formula", default="best",
                   choices=["padded", "s-padded", "kappa", "dudik", "corollary",
                            "closed-form", "ungapped-ref", "best"])
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("oracle", parents=[common],
                       help="naive enumeration cross-checks (slow, reference only)")
    p.add_argument("op", choices=["deck", "equal", "collision"])
    p.add_argument("strings", nargs="*")
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, help="collision: string length to enumerate")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, ExactOverflowError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
