import argparse
import hashlib
import json
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys

import pytest

import gapdeck
from gapdeck.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_equal_true_pair(capsys):
    code, out = run(capsys, "equal", "010011", "001101", "--s", "2", "--k", "2")
    assert code == 0
    assert out == "true\n"


def test_equal_false_pair_exits_one(capsys):
    code, out = run(capsys, "equal", "0101", "0110", "--k", "2")
    assert code == 1
    assert out == "false\n"


def test_construct_padded_base(capsys):
    code, out = run(capsys, "construct", "padded", "--k", "1")
    assert code == 0
    assert out == "0010\n0100\n"


def test_bounds_table2(capsys):
    code, out = run(capsys, "bounds", "table2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert "42742211" in lines[0]
    assert "238563374" in lines[5]


@pytest.mark.parametrize("argv, digest", [
    (["table1"], "ccf9622487c79f15bf5f52e6d6e36f98cbf9d30e9f27cfb8b1e88d0ef150d9e4"),
    (["table1", "--json"], "b8d3f5869119dafe2a0c3630fdcd2b64e18dd3192825c6f9371722e0d075d2d6"),
    (["table2"], "2216cffabd23f40a792f6b62feb3e1e34a0e2490185606aa8cd0c9a0f30ec70a"),
    (["table2", "--json"], "1da0904b4db051ad4882f69288be987e95a2f6439f56eaf93ccee0f9d9554e19"),
], ids=["table1", "table1-json", "table2", "table2-json"])
def test_bound_tables_keep_their_bytes(capsys, argv, digest):
    # both tables, text and JSON, pinned byte for byte by the sha256 of stdout
    code, out = run(capsys, "bounds", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_deck_listing(capsys):
    code, out = run(capsys, "deck", "1001", "--k", "2")
    assert code == 0
    assert out == "0 2\n1 2\n01 1\n10 1\n11 1\n"


def test_json_envelope(capsys):
    code, out = run(capsys, "equal", "010011", "001101", "--k", "2", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "gapdeck/1"
    assert rec["command"] == "equal"
    assert rec["result"] == {"equal": True}


def test_strings_from_file(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("010011\n001101\n")
    code, out = run(capsys, "equal", str(path), "--k", "2")
    assert code == 0
    assert out == "true\n"


def test_search_json_and_worker_independence(capsys):
    code, out1 = run(capsys, "search", "G", "--s", "2", "--k", "2",
                     "--n-max", "8", "--json", "--workers", "1")
    assert code == 0
    code, out8 = run(capsys, "search", "G", "--s", "2", "--k", "2",
                     "--n-max", "8", "--json", "--workers", "8")
    assert code == 0
    assert out1 == out8
    rec = json.loads(out1)
    assert rec["result"]["n"] == 6


def test_verbose_search_telemetry_stays_off_stdout():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapdeck.__file__)))
    argv = [sys.executable, "-m", "gapdeck.cli", "search", "G", "--s", "2", "--k", "2",
            "--n-max", "8", "--json"]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    loud = subprocess.run(argv + ["-v"], env=env, capture_output=True, text=True, timeout=60)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stdout == loud.stdout
    assert json.loads(loud.stdout)["result"]["n"] == 6
    assert quiet.stderr == ""
    assert ("INFO gapdeck.search: n=6 FULL_B s=2 k=2: 64 strings hashed, "
            "ranges 1 computed / 0 loaded, 3 hash-coincident groups "
            "(1 confirmed, 0 hash false positives); hash ") in loud.stderr


def test_verbose_range_progress_stays_off_stdout():
    # n=21 is the first length split into two ranges: at -v each finished
    # range logs its progress and an ETA on stderr, beside the one summary
    # line per length that reports ranges "computed / loaded"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapdeck.__file__)))
    argv = [sys.executable, "-m", "gapdeck.cli", "search", "G", "--s", "3", "--k", "4",
            "--n-max", "21", "--json"]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    loud = subprocess.run(argv + ["-v"], env=env, capture_output=True, text=True, timeout=120)
    assert quiet.returncode == loud.returncode == 1  # no collision through n=21
    assert quiet.stdout == loud.stdout
    assert json.loads(loud.stdout)["result"]["scanned_lengths"] == list(range(10, 22))
    assert quiet.stderr == ""
    progress = re.findall(r"n=(\d+) FULL_B s=3 k=4: (\d+)/(\d+) ranges done, "
                          r"\d+\.\d s elapsed, ETA \d+\.\d s\n", loud.stderr)
    assert progress == [("21", "1", "2"), ("21", "2", "2")]
    assert len(re.findall(r"ranges (\d+) computed / (\d+) loaded", loud.stderr)) == 12


def test_search_SU_checkpoint_and_verbose_keep_stdout(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapdeck.__file__)))
    argv = [sys.executable, "-m", "gapdeck.cli", "search", "SU", "--k1", "4", "--k2", "3",
            "--json"]
    quiet = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    ckpt = argv + ["--checkpoint", str(tmp_path), "-v"]
    loud = subprocess.run(ckpt, env=env, capture_output=True, text=True, timeout=60)
    resumed = subprocess.run(ckpt, env=env, capture_output=True, text=True, timeout=60)
    assert quiet.returncode == loud.returncode == resumed.returncode == 0
    assert quiet.stdout == loud.stdout == resumed.stdout
    assert quiet.stdout == (
        '{"command": "search", "params": {"k1": 4, "k2": 3, "m_max": 16, "which": "SU"}, '
        '"result": {"deck_kind": "WILDCARD_U", "n": 12, "notes": [], "params": {"k1": 4, "k2": 3}, '
        '"scanned_lengths": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], '
        '"witnesses": [["XYYXXXYXXYYX", "YXXXYXYYXXXY"]]}, "schema": "gapdeck/1"}\n')
    assert quiet.stderr == ""
    assert ("INFO gapdeck.search: n=12 WILDCARD_U k1=4 k2=3: 4096 strings hashed, "
            "ranges 1 computed / 0 loaded, ") in loud.stderr
    assert ("INFO gapdeck.search: n=12 WILDCARD_U k1=4 k2=3: 0 strings hashed, "
            "ranges 0 computed / 1 loaded, ") in resumed.stderr


def test_search_SU_passes_workers_and_checkpoint(capsys, tmp_path, monkeypatch):
    import gapdeck.search as search

    seen = []
    real = search.find_collision

    def spy(n, params, deck_kind, workers, checkpoint):
        seen.append((workers, checkpoint))
        return real(n, params, deck_kind, workers, checkpoint)

    monkeypatch.setattr(search, "find_collision", spy)
    code, _ = run(capsys, "search", "SU", "--k1", "3", "--k2", "2", "--workers", "2",
                  "--checkpoint", str(tmp_path))
    assert code == 0
    assert seen == [(2, str(tmp_path))] * 7
    assert (tmp_path / "search.log").exists()


_DYING_WORKER = """
import os, sys
from gapdeck import cli, search

real = search._hash_range

def dying(args):
    if args[-2] > 0:  # every range but the first: only worker processes see one
        os._exit(1)
    return real(args)

search._hash_range = dying
sys.exit(cli.main(["search", "G", "--s", "2", "--k", "4", "--n-max", "21", "--workers", "2"]))
"""


def test_dead_worker_exits_two():
    # n=21 is the first length split into two ranges; the worker hashing the
    # second one dies, which must end the search with exit 2, not a hang
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gapdeck.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_search_G_json_envelope_bytes(capsys):
    code, out = run(capsys, "search", "G", "--s", "2", "--k", "2", "--n-max", "8", "--json")
    assert code == 0
    assert out == (
        '{"command": "search", "params": {"k": 2, "mode": "exact", "n_max": 8, "s": 2, '
        '"which": "G"}, "result": {"deck_kind": "FULL_B", "n": 6, "notes": ["lengths 1..2 '
        'excluded: depth-2 slice is empty there (every pair vacuously equal), first '
        'meaningful length is 3"], "params": {"k": 2, "s": 2}, "scanned_lengths": [3, 4, 5, 6], '
        '"witnesses": [["001101", "010011"]]}, "schema": "gapdeck/1"}\n')


@pytest.mark.parametrize("flags", [["--mode", "fingerprint"], ["--primes", "5"]])
def test_search_has_no_fingerprint_options(capsys, flags):
    # every verdict is exact: no command takes a counting mode or moduli
    code = main(["search", "G", "--s", "2", "--k", "2", "--n-max", "8", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: gapdeck: unrecognized arguments: {' '.join(flags)}\n"


@pytest.mark.parametrize("command", ["equal", "eq7"])
def test_equal_and_eq7_refuse_mode(capsys, command):
    # --mode is gone: every verdict is exact, and the option is a usage error
    code = main([command, "010011", "001101", "--k", "2", "--mode", "exact"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: gapdeck: unrecognized arguments: --mode exact\n"


def test_equal_and_eq7_envelopes_keep_their_bytes(capsys):
    # the envelopes still name "mode": "exact", as search's do
    code, out = run(capsys, "equal", "010011", "001101", "--k", "2", "--json")
    assert code == 0
    assert out == ('{"command": "equal", "params": {"k": 2, "mode": "exact", "s": 2}, '
                   '"result": {"equal": true}, "schema": "gapdeck/1"}\n')
    code, out = run(capsys, "eq7", "0010", "0100", "--k", "1", "--json")
    assert code == 0
    assert out == ('{"command": "eq7", "params": {"k": 1, "mode": "exact", "s": 2}, '
                   '"result": {"all_equal": true, "k": 1, "l_equal": true, "lr_equal": true, '
                   '"mode": "exact", "plain_equal": true, "r_equal": true, "s": 2}, '
                   '"schema": "gapdeck/1"}\n')


_MISSING_OPTION = [
    (["search", "G"], "--k"),
    (["search", "Gstar"], "--k"),
    (["search", "exactD"], "--k"),
    (["search", "SU"], "--k1"),
    (["construct", "padded"], "--k"),
    (["construct", "s-padded"], "--k"),
    (["construct", "exact-family"], "--z"),
    (["bounds", "single"], "--k"),
    (["bounds", "single", "--formula", "kappa"], "--k1"),
    (["wildcard", "count"], "--w"),
    (["wildcard", "uequiv"], "--p"),
    (["wildcard", "substitute"], "--p"),
    (["oracle", "collision", "--k", "2"], "--n"),
]


@pytest.mark.parametrize("argv, flag", _MISSING_OPTION,
                         ids=["_".join(argv) for argv, _ in _MISSING_OPTION])
def test_missing_option_exits_two(capsys, argv, flag):
    # exit 1 means "computed, and the property does not hold"; a missing
    # option is a usage error, named on stderr
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert re.search(rf"{flag}\b", err)
    assert "Traceback" not in err


def test_search_bad_params_exit_two(capsys):
    code = main(["search", "G", "--s", "0", "--k", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "s must be >= 1" in err


_OVERFLOWS = [
    (["--formula", "closed-form", "--k", "2958"], "cannot convert float infinity to integer"),
    (["--formula", "closed-form", "--k", "3100"], "Numerical result out of range"),
    (["--formula", "dudik", "--k1", str(10**300), "--k2", "2"],
     "int too large to convert to float"),
]


@pytest.mark.parametrize("argv, message", _OVERFLOWS, ids=["inf", "range", "int"])
def test_overflowing_bound_exits_two(capsys, argv, message):
    # a formula whose evaluation leaves the float range decides nothing: exit
    # 2 with the error, never exit 1 ("the property does not hold"); an
    # errno-style OverflowError prints its strerror, not its argument tuple
    code = main(["bounds", "single", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_search_refuses_fewer_than_one_worker(capsys, monkeypatch, workers):
    # refused before any length is scanned, not run serially
    monkeypatch.setattr("gapdeck.search._hash_range", None)
    code = main(["search", "G", "--k", "2", "--n-max", "8", "--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: need workers >= 1, got {workers}\n"


def test_search_not_found_exits_one(capsys):
    code, _ = run(capsys, "search", "G", "--s", "2", "--k", "2", "--n-max", "5")
    assert code == 1


def test_eq7_subcommand(capsys):
    code, out = run(capsys, "eq7", "0010", "0100", "--k", "1")
    assert code == 0
    assert "all=true" in out


def test_wildcard_count(capsys):
    code, out = run(capsys, "wildcard", "count", "--w", "JX", "--p", "YXYX")
    assert code == 0
    assert out == "4\n"


def test_wildcard_lemma3_reports_failure(capsys):
    code, out = run(capsys, "wildcard", "lemma3", "--x", "0010", "--y", "0100",
                    "--p", "XYYXXXY", "--q", "YXXXYYX", "--k", "1", "--sigma", "1")
    assert code == 1
    assert "hypotheses_true=true" in out
    assert "conclusions_true=false" in out


def test_oracle_collision(capsys):
    code, out = run(capsys, "oracle", "collision", "--n", "6", "--k", "2")
    assert code == 0
    assert out == "witness 001101 010011\n"
    code, out = run(capsys, "oracle", "collision", "--n", "5", "--k", "2")
    assert code == 1
    assert out == "none\n"


# every --formula value's --json record, with its rounding rule taken from the formula
_SINGLE_BOUNDS = [
    (["padded", "--k", "4"],
     '{"formula_id": "PADDED", "k": 4, "rounding": "exact", "value": 58}'),
    (["s-padded", "--s", "3", "--k", "4"],
     '{"formula_id": "S_PADDED", "k": 4, "rounding": "exact", "s": 3, "value": 93}'),
    (["s-padded", "--k", "4"],  # the gap defaults to 2
     '{"formula_id": "S_PADDED", "k": 4, "rounding": "exact", "s": 2, "value": 58}'),
    (["kappa", "--k1", "5", "--k2", "3"],
     '{"formula_id": "KAPPA", "k1": 5, "k2": 3, "rounding": "exact", "value": 34}'),
    (["dudik", "--k1", "5", "--k2", "3"],
     '{"formula_id": "DUDIK_SU", "k1": 5, "k2": 3, "rounding": "floor", "value": 286}'),
    (["corollary", "--k", "7"],
     '{"formula_id": "COROLLARY_REC", "k": 7, "rounding": "exact", "value": 508}'),
    (["closed-form", "--k", "30"],
     '{"formula_id": "CLOSED_FORM", "k": 30, "rounding": "ceil", "value": 86039831}'),
    (["ungapped-ref", "--k", "90"],
     '{"formula_id": "UNGAPPED_REFERENCE", "k": 90, "rounding": "none", '
     '"value": 870308290478.2739}'),
    (["best", "--k", "30"],
     '{"formula_id": "CLOSED_FORM", "k": 30, "rounding": "ceil", "value": 86039831}'),
    (["best", "--k", "3"],
     '{"formula_id": "EXACT", "k": 3, "note": "exhaustive-search value", '
     '"rounding": "exact", "value": 13}'),
]


def test_bounds_single_formula(capsys):
    code, out = run(capsys, "bounds", "single", "--formula", "padded", "--k", "4")
    assert code == 0
    assert "value=58" in out
    for args, rec in _SINGLE_BOUNDS:
        code, out = run(capsys, "bounds", "single", "--formula", *args, "--json")
        assert code == 0
        assert out == ('{"command": "bounds", "params": {"table": "single"}, '
                       '"result": [%s], "schema": "gapdeck/1"}\n' % rec), args


_FOREIGN_OPTION = [
    (["kappa", "--k1", "5", "--k2", "3", "--k", "4"], "--k"),
    (["padded", "--k", "4", "--s", "3"], "--s"),
    (["best", "--k", "3", "--k2", "2"], "--k2"),
    (["s-padded", "--k", "4", "--k1", "3"], "--k1"),
]


@pytest.mark.parametrize("argv, flag", _FOREIGN_OPTION, ids=[a[0] for a, _ in _FOREIGN_OPTION])
def test_bounds_single_refuses_options_its_formula_does_not_read(capsys, argv, flag):
    # `single` declares every formula's options; one the formula ignores is refused
    code = main(["bounds", "single", "--formula", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: bounds single --formula {argv[0]} does not read {flag}\n"


@pytest.mark.parametrize("formula", ["kappa", "dudik"])
@pytest.mark.parametrize("k1, k2", [(-5, 2), (2, 3)], ids=["k1-negative", "k1-below-k2"])
def test_su_bounds_refuse_k1_below_k2(capsys, formula, k1, k2):
    # kappa is defined for the families U(k1, k2) with k1 >= k2 >= 2 only,
    # as the Dudik-Schulman bound built on it is
    code = main(["bounds", "single", "--formula", formula, "--k1", str(k1), "--k2", str(k2)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: need k1 >= k2 >= 2, got k1={k1}, k2={k2}\n"


def test_oracle_collision_refuses_lengths_below_the_floor(capsys):
    # below s(k-1)+1 every pair is vacuously equal: search G refuses such a
    # length, and so does the oracle, instead of printing a witness
    code = main(["oracle", "collision", "--n", "3", "--k", "2", "--s", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: n=3 is below the first meaningful length 6\n"
    assert main(["search", "G", "--s", "5", "--k", "2", "--n-max", "3"]) == 2
    capsys.readouterr()
    code, out = run(capsys, "oracle", "collision", "--n", "6", "--k", "2", "--s", "5")
    assert code == 0
    assert out == "witness 000010 000100\n"


@pytest.mark.parametrize("argv, name", [
    (["deck", "0101", "--s", "0", "--k", "2"], "s"),
    (["equal", "0101", "1010", "--s", "-1", "--k", "2"], "s"),
    (["collision", "--n", "4", "--s", "2", "--k", "0"], "k"),
    (["collision", "--n", "-1", "--k", "2"], "n"),
    (["collision", "--n", "0", "--k", "2"], "n"),
], ids=["deck-s0", "equal-s-1", "collision-k0", "collision-n-1", "collision-n0"])
def test_oracle_bad_params_exit_two(capsys, argv, name):
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert re.search(rf"\b{name}\b", captured.err)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, problem", [
    (["deck", "--k", "2"], "needs at least one string"),
    (["deck", "--k", "2", "--json"], "needs at least one string"),
    (["collision", "0101", "--n", "3", "--k", "2"], "unrecognized arguments: 0101"),
], ids=["deck-no-string", "deck-no-string-json", "collision-with-string"])
def test_oracle_string_count_exits_two(capsys, argv, problem):
    # as `gapdeck deck` refuses no string, the oracle refuses a string count
    # it cannot use instead of printing nothing or ignoring the string
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and problem in captured.err


@pytest.mark.parametrize("command", [["deck"], ["oracle", "deck"]], ids=["deck", "oracle-deck"])
@pytest.mark.parametrize("text, flags", [("", []), ("\n  \n\n", ["--json"])],
                         ids=["empty-file", "blank-lines-json"])
def test_deck_of_a_file_without_strings_exits_two(capsys, tmp_path, command, text, flags):
    # a file that holds no string is refused like no string at all, not
    # listed as an empty deck with exit 0
    path = tmp_path / "strings.txt"
    path.write_text(text)
    code = main([*command, str(path), "--k", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "needs at least one string" in captured.err


def test_deck_listing_matches_the_oracle(capsys, tmp_path):
    # deck and oracle deck share one listing; only the counting differs
    path = tmp_path / "strings.txt"
    path.write_text("1\n0110\n\n1001011\n111010010110\n")
    code, fast = run(capsys, "deck", str(path), "--s", "2", "--k", "3", "--json")
    assert code == 0
    code, naive = run(capsys, "oracle", "deck", str(path), "--s", "2", "--k", "3", "--json")
    assert code == 0
    result = json.loads(fast)["result"]
    assert result == json.loads(naive)["result"]
    assert [rec["string"] for rec in result] == ["1", "0110", "1001011", "111010010110"]


_HUGE_K = [["equal", "01", "10"], ["oracle", "equal", "01", "10"], ["oracle", "deck", "01"],
           ["oracle", "collision", "--n", "79"]]  # 79 = s(k-1)+1, the first meaningful length


@pytest.mark.parametrize("argv", _HUGE_K, ids=["_".join(argv[:2]) for argv in _HUGE_K])
def test_refused_allocation_exits_two(capsys, argv):
    # at k=40 a deck holds 2^41 - 2 counts (16 TiB), so the first allocation
    # is refused; that decides nothing, so it must not read as exit 1 ("the
    # property does not hold"). The address-space cap makes the refusal
    # immediate even where the system overcommits memory.
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 1 << 40 if hard == resource.RLIM_INFINITY else min(1 << 40, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        code = main([*argv, "--k", "40"])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_pass_beyond_physical_memory_exits_two(capsys, monkeypatch):
    # at k=20 a pass over two letters keeps five states of 2^21 uint64 words
    # (80 MiB) live: real memory holds them, but against 64 MiB the pass must
    # be refused before it allocates rather than be granted and then killed
    code, out = run(capsys, "equal", "01", "10", "--k", "20")
    assert (code, out) == (0, "true\n")
    monkeypatch.setattr("gapdeck.deck._PHYSICAL_BYTES", 64 << 20)
    code = main(["equal", "01", "10", "--k", "20"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: a counting pass needs 83886040 bytes")


def test_usage_error_exits_two(capsys):
    code, _ = run(capsys, "equal", "01", "--k", "2")  # only one string
    assert code == 2
    code = main(["equal", "01", "10"])  # missing required --k
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: gapdeck equal: the following arguments are required: --k\n"


def test_construct_exact_family(capsys):
    code, out = run(capsys, "construct", "exact-family", "--z", "101",
                    "--fills", "00", "--s", "2")
    assert code == 0
    assert out == "10001\n"


def _operations():
    """(command, {operation: parser}) for every gapdeck command."""
    def choices(parser):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return subs[0].choices if subs else {}
    return [(cmd, choices(p)) for cmd, p in choices(build_parser()).items()]


def test_every_subcommand_has_help(capsys):
    for cmd, ops in _operations():
        for argv in ([cmd, "--help"], *([cmd, op, "--help"] for op in ops)):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0, argv
    assert capsys.readouterr().err == ""


# a valid command line of each operation, to which a stray option is added
_VALID = {
    "construct classical": "--k 2", "construct padded": "--k 2",
    "construct s-padded": "--k 2", "construct exact-family": "--z 101",
    "search G": "--k 2", "search Gstar": "--k 2", "search exactD": "--k 2",
    "search SU": "--k1 3",
    "wildcard count": "--w JX --p YXYX", "wildcard uequiv": "--p XY --q YX --r 1 --k 2",
    "wildcard substitute": "--p XY --x 0 --y 1",
    "wildcard lemma3": "--x 0010 --y 0100 --p XYYXXXY --q YXXXYYX --k 1",
    "bounds single": "--k 3", "bounds table1": "", "bounds table2": "",
    "oracle deck": "01 --k 2", "oracle equal": "01 10 --k 2",
    "oracle collision": "--n 3 --k 2",
}


def _stray_options():
    """(argv, flag): each operation given an option only a sibling operation declares."""
    cases = []
    for cmd, ops in _operations():
        declared = {op: {flag: action for action in p._actions for flag in action.option_strings}
                    for op, p in ops.items()}
        for op in ops:
            siblings = {flag: action for other in ops for flag, action in declared[other].items()}
            for flag, action in siblings.items():
                if flag not in declared[op]:
                    value = [] if action.nargs == 0 else [(action.choices or ["3"])[0]]
                    valid = shlex.split(_VALID[f"{cmd} {op}"])
                    cases.append(([cmd, op, *valid, flag, *value], flag))
    return cases


_STRAY = _stray_options()


@pytest.mark.parametrize("argv, flag", _STRAY, ids=[f"{a[0]}-{a[1]}{f}" for a, f in _STRAY])
def test_stray_option_exits_two(capsys, argv, flag):
    # an option that only a sibling operation reads is refused, not ignored
    build_parser().parse_args(argv[:argv.index(flag)])  # the rest is valid
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


_REFUSALS = [
    (["equal", "01", "10"], "gapdeck equal: the following arguments are required: --k"),
    (["deck", "01", "--k", "2", "--bogus"], "gapdeck: unrecognized arguments: --bogus"),
    (["search", "--json", "G", "--k", "2"], "gapdeck: unrecognized arguments: --json"),
    (["search", "H", "--k", "2"], "gapdeck search: argument which: invalid choice: 'H'"),
    (["deck", "--k", "2"], "needs at least one string, got none"),
    (["oracle", "deck", "--k", "2"], "needs at least one string, got none"),
    (["wildcard", "uequiv", "--p", "XY", "--q", "YX", "--k1", "3"],
     "wildcard uequiv needs --k2"),
    (["wildcard", "uequiv", "--p", "XY", "--q", "YX", "--k2", "2"],
     "wildcard uequiv needs --k1"),
    (["wildcard", "uequiv", "--p", "XY", "--q", "YX", "--r", "1"],
     "wildcard uequiv needs --k"),
    (["wildcard", "uequiv", "--p", "XY", "--q", "YX", "--k1", "3", "--k2", "2", "--k", "2"],
     "wildcard uequiv takes --r with --k, or --k1 with --k2, not both"),
]


@pytest.mark.parametrize("argv, message", _REFUSALS, ids=[
    "missing", "unknown", "misplaced", "bad-operation", "deck-no-string",
    "oracle-deck-no-string", "uequiv-no-k2", "uequiv-no-k1", "uequiv-no-k", "uequiv-mixed"])
def test_every_refusal_returns_two(capsys, argv, message):
    # one path for every usage error: main returns 2 with one line on
    # stderr; only --help raises SystemExit
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, bound, floor", [
    (["G", "--k", "4", "--n-max", "5"], "n_max=5", 7),
    (["Gstar", "--k", "1", "--n-max", "1"], "n_max=1", 2),
    (["SU", "--k1", "3", "--k2", "2", "--m-max", "0"], "m_max=0", 1),
], ids=["G", "Gstar", "SU"])
def test_scan_below_its_floor_exits_two(capsys, monkeypatch, argv, bound, floor):
    # a bound below the first meaningful length scans nothing, so it
    # decides nothing: refused before any length (find_collision is never
    # called), never reported as "no collision"
    monkeypatch.setattr("gapdeck.search.find_collision", None)
    code = main(["search", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {bound} scans no length: "
                            f"the first meaningful length is {floor}\n")


def test_readme_cli_examples_parse():
    # parse only: the G_2(4) example takes seconds to run
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("gapdeck ")]
    assert len(lines) == len(block.splitlines()) > 10
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
