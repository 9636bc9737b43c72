import json
import os
import subprocess
import sys

import pytest

import gapdeck
from gapdeck.cli import main


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

    def spy(n, params, deck_kind, workers, mode, checkpoint, primes):
        seen.append((workers, checkpoint))
        return real(n, params, deck_kind, workers, mode, checkpoint, primes)

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


def test_bounds_single_formula(capsys):
    code, out = run(capsys, "bounds", "single", "--formula", "padded", "--k", "4")
    assert code == 0
    assert "value=58" in out


def test_usage_error_exits_two(capsys):
    code, _ = run(capsys, "equal", "01", "--k", "2")  # only one string
    assert code == 2
    with pytest.raises(SystemExit) as err:
        main(["equal", "01", "10"])  # missing required --k
    assert err.value.code == 2


def test_construct_exact_family(capsys):
    code, out = run(capsys, "construct", "exact-family", "--z", "101",
                    "--fills", "00", "--s", "2")
    assert code == 0
    assert out == "10001\n"


def test_every_subcommand_has_help():
    for cmd in ("deck", "equal", "eq7", "construct", "search",
                "wildcard", "bounds", "oracle"):
        with pytest.raises(SystemExit) as err:
            main([cmd, "--help"])
        assert err.value.code == 0
