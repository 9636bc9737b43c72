"""Command-line entry point: every library operation behind one `gapdeck` command.

Exit status: 0 = computed and the property holds (or plain output was
produced), 1 = computed and it does NOT hold (`equal` finds unequal decks, a
search exhausts its range), 2 = usage or computation error (a refused memory
allocation or a number past the float or 64-bit range included: it decides
nothing). main returns 2 for every usage error, argparse's included, with one
`error:` line on stderr; only --help raises SystemExit.
Structured output (--json) uses the stable versioned envelope {"schema":
"gapdeck/1", "command", "params", "result"} and is byte-identical across
runs, including parallel searches with different worker counts. Progress
goes to stderr via logging; results go to stdout.

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
from gapdeck.deck import GapParams, deck_equal, enumerate_deck, verify_eq7
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
    """Refuse a missing option as a usage error: ValueError("wildcard uequiv needs --k2")."""
    missing = [f"--{f}" for f in flags if getattr(args, f) is None]
    if missing:
        words = (getattr(args, a, None) for a in ("command", "table", "op"))
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
    eq = deck_equal(x, y, params)
    _emit(
        args,
        "equal",
        {"s": args.s, "k": args.k, "mode": "exact"},  # every verdict is exact
        {"equal": eq},
        ["true" if eq else "false"],
    )
    return 0 if eq else 1


def cmd_eq7(args) -> int:
    params = GapParams(args.s, args.k)
    x, y = _resolve_binary(args.strings, 2)
    rep = verify_eq7(x, y, params)
    _emit(
        args,
        "eq7",
        {"s": args.s, "k": args.k, "mode": "exact"},
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
    lines.extend(f"witness {x} {y}" for x, y in report.to_record()["witnesses"])
    if report.scanned_lengths:
        lines.append(
            f"scanned {report.scanned_lengths[0]}..{report.scanned_lengths[-1]}"
        )
    lines.extend(f"# {note}" for note in report.notes)
    return lines


def cmd_search(args) -> int:
    if args.which == "SU":
        fn, scan = search_SU, (args.k1, args.k2, args.m_max)
        params = {"which": "SU", "k1": args.k1, "k2": args.k2, "m_max": args.m_max}
    else:
        fn = {"G": search_G, "Gstar": search_G_star, "exactD": search_exact_D}[args.which]
        scan = GapParams(args.s, args.k), args.n_max
        params = {"which": args.which, "s": args.s, "k": args.k, "n_max": args.n_max,
                  "mode": "exact"}  # every verdict is exact
    report = fn(*scan, workers=args.workers, checkpoint=args.checkpoint)
    _emit(args, "search", params, report.to_record(), _report_lines(report))
    return 0 if report.n is not None else 1


def cmd_wildcard(args) -> int:
    if args.op == "count":
        value = count_wildcard(parse_wildcard(args.w), parse_wildcard(args.p))
        _emit(args, "wildcard", {"op": "count", "w": args.w, "p": args.p},
              {"count": value}, [str(value)])
        return 0
    if args.op == "uequiv":
        pair = args.k1 is not None or args.k2 is not None
        if pair and (args.r is not None or args.k is not None):
            raise ValueError("wildcard uequiv takes --r with --k, or --k1 with --k2, not both")
        _need(args, *(("k1", "k2") if pair else ("r", "k")))
        if pair:
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
    stray = [f"--{f}" for f in ("s", "k", "k1", "k2")
             if f not in names and getattr(args, f) is not None]
    if stray:
        raise ValueError(f"bounds single --formula {args.formula} does not read {', '.join(stray)}")
    if "s" in names and args.s is None:
        args.s = 2  # the gap of s-padded when --s is not given
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
    floor = args.s * (args.k - 1) + 1
    if args.n < floor:  # as in search G: every pair is vacuously equal below it
        raise ValueError(f"n={args.n} is below the first meaningful length {floor}")
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so main reports it like any other."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the versioned structured record instead of text")
    common.add_argument("-v", "--verbose", action="store_true", help="progress logging on stderr")
    deck_opts = _Parser(add_help=False)  # deck, equal, eq7, search G|Gstar|exactD, oracle
    deck_opts.add_argument("--s", type=int, default=2, help="minimum index gap (default 2)")
    deck_opts.add_argument("--k", type=int, required=True, help="maximum subsequence length")
    strings = _Parser(add_help=False)  # none at all is refused by _resolve_binary
    strings.add_argument("strings", nargs="*", help="inline 0/1 string or file of 0/1 lines")

    parser = _Parser(
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
        sub.add_parser(name, parents=[common, deck_opts, strings], help=help_).set_defaults(func=func)

    def operations(name, dest, func, help_):
        """A command of named operations, each with a parser of its own options."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        ops = p.add_subparsers(dest=dest, required=True)
        return lambda op, *parents: ops.add_parser(op, parents=[common, *parents])

    op = operations("construct", "family", cmd_construct,
                    "emit a confusable-pair construction")
    depth = _Parser(add_help=False)
    depth.add_argument("--k", type=int, required=True, help="deck depth")
    op("classical", depth)
    for family, opts in (("padded", depth), ("s-padded", deck_opts)):
        op(family, opts).add_argument("--trimmed", action="store_true", help="drop shared end bits")
    p = op("exact-family")
    p.add_argument("--z", required=True, help="the prescribed depth-k subsequence")
    p.add_argument("--fills", default="", help="the (k-1)(s-1) fill bits")
    p.add_argument("--s", type=int, default=2, help="minimum index gap (default 2)")

    op = operations("search", "which", cmd_search,
                    "exhaustive minimal confusable-length search")
    scan = _Parser(add_help=False)
    scan.add_argument("--workers", type=int, default=1)
    scan.add_argument("--checkpoint", default=None,
                      help="directory of per-range hash sidecars, which a resume reads, "
                           "and search.log, an append-only progress record")
    for which in ("G", "Gstar", "exactD"):
        op(which, deck_opts, scan).add_argument("--n-max", type=int, default=24,
                                                help="largest length to scan")
    p = op("SU", scan)
    p.add_argument("--k1", type=int, required=True, help="primary depth")
    p.add_argument("--k2", type=int, help="secondary depth")
    p.add_argument("--m-max", type=int, default=16, help="largest length to scan")

    op = operations("wildcard", "op", cmd_wildcard,
                    "wildcard pattern counts, U-equivalence, substitution")
    words = {"w": "pattern over X/Y/J", "p": "J-free string over X/Y", "q": "second J-free string",
             "x": "first binary string", "y": "second binary string"}
    wild = {name: op(name) for name in ("count", "uequiv", "substitute", "lemma3")}
    for p, flags in zip(wild.values(), ("wp", "pq", "pxy", "xypq")):
        for flag in flags:
            p.add_argument(f"--{flag}", required=True, help=words[flag])
    for flag, help_ in (("--r", "U_r(k): non-J count"), ("--k", "U_r(k): max length"),
                        ("--k1", "U(k1,k2) = U_1(k1) u U_2(k2)"), ("--k2", "U(k1,k2)")):
        wild["uequiv"].add_argument(flag, type=int, help=help_)  # cmd_wildcard checks the form
    wild["lemma3"].add_argument("--k", type=int, required=True, help="depth")
    wild["lemma3"].add_argument("--sigma", type=int, default=0, help="depth offset")

    op = operations("bounds", "table", cmd_bounds, "closed-form and recursive upper bounds")
    p = op("single")  # _single_bound checks that --formula reads exactly the options given
    p.add_argument("--formula", default="best", choices=list(_FORMULAS))
    for flag in ("--s", "--k", "--k1", "--k2"):
        p.add_argument(flag, type=int)
    op("table1")
    op("table2")

    op = operations("oracle", "op", cmd_oracle,
                    "naive enumeration cross-checks (slow, reference only)")
    op("deck", deck_opts, strings)
    op("equal", deck_opts, strings)
    op("collision", deck_opts).add_argument("--n", type=int, required=True,
                                            help="string length to enumerate")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            stream=sys.stderr,
            level=logging.INFO if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except (ValueError, OSError, OverflowError, BrokenExecutor, MemoryError) as exc:
        # a float power's OverflowError carries (errno, strerror): print the strerror
        errno_style = isinstance(exc, OverflowError) and len(exc.args) == 2
        print(f"error: {exc.args[1] if errno_style else str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
