import contextlib
import io
import json
import os
import subprocess
import sys
from math import factorial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulamdist
from ulamdist import census, injections, paths, tableaux
from ulamdist.census import enumeration_cap
from ulamdist.cli import build_parser, main

from test_census import MALFORMED_IMAGES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter on this package."""
    src = os.path.dirname(os.path.dirname(ulamdist.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout


def test_importing_the_cli_loads_no_process_pool():
    loaded = run_fresh(
        "import sys, ulamdist.cli\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules])"
    )
    assert loaded == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, and inspect imports ast, dis and tokenize.
    loaded = run_fresh(
        "import sys, ulamdist.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules])"
    )
    assert loaded == "[]\n"


def test_the_parser_is_built_once_and_shared(capsys):
    parser = build_parser()
    assert build_parser() is parser
    assert run(capsys, "sequence", "--class", "u", "--n", "0")[0] == 2
    assert run(capsys, "sequence", "--class", "u", "--n", "3") == (0, "n,k,count\n3,1,1\n3,2,4\n3,3,1\n", "")
    assert build_parser() is parser


class TestSequence:
    def test_csv_exact_bytes(self, capsys):
        code, out, _ = run(capsys, "sequence", "--class", "u", "--n", "4")
        assert code == 0
        assert out == "n,k,count\n4,1,1\n4,2,13\n4,3,9\n4,4,1\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sequence", "--class", "u", "--n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "class": "all_permutations",
            "n": 4,
            "counts": {"1": 1, "2": 13, "3": 9, "4": 1},
        }

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "sequence", "--class", "h", "--n", "6")
        _, second, _ = run(capsys, "sequence", "--class", "h", "--n", "6")
        assert first == second

    def test_protected_with_lm(self, capsys):
        code, out, _ = run(
            capsys, "sequence", "--class", "p", "--n", "5", "--lm", "2,4"
        )
        assert code == 0
        total = sum(int(line.split(",")[2]) for line in out.splitlines()[1:])
        assert total == 8

    def test_shapes_method(self, capsys):
        _, enum_out, _ = run(capsys, "sequence", "--class", "u", "--n", "6")
        _, shape_out, _ = run(
            capsys, "sequence", "--class", "u", "--n", "6", "--method", "shapes"
        )
        assert enum_out == shape_out

    def test_budget_refusal_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sequence", "--class", "u", "--n", "13")
        assert code == 2
        assert "ULAM_BUDGET" in err

    def test_unknown_class(self, capsys):
        code, _, err = run(capsys, "sequence", "--class", "zzz", "--n", "3")
        assert code == 2
        assert "zzz" in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_shapes_rejects_n_below_one(self, capsys, n):
        code, out, err = run(
            capsys, "sequence", "--class", "u", "--n", n, "--method", "shapes"
        )
        assert code == 2 and out == ""
        assert err == f"error: n must be >= 1, got {n}\n"

    @pytest.mark.parametrize("flag", [("--lm", "2,4"), ("--jobs", "2")], ids=["lm", "jobs"])
    @pytest.mark.parametrize("method", ["enumerate", "shapes"])
    def test_n_is_checked_before_lm_and_jobs(self, capsys, method, flag):
        code, out, err = run(
            capsys, "sequence", "--class", "u", "--n", "0", "--method", method, *flag
        )
        assert (code, out, err) == (2, "", "error: n must be >= 1, got 0\n")

    @pytest.mark.parametrize("label", ["u", "i"])
    def test_shapes_rejects_lm(self, capsys, label):
        code, out, err = run(
            capsys, "sequence", "--class", label, "--n", "4", "--method", "shapes",
            "--lm", "2,4",
        )
        assert code == 2 and out == ""
        assert err.startswith("error: class ") and "takes no lm parameter" in err

    @pytest.mark.parametrize("label, err", [
        ("u", "error: class 'all_permutations' takes no lm parameter\n"),
        ("i", "error: class 'involutions' takes no lm parameter\n"),
        ("h", "error: --method shapes is not available for 'h'\n"),
        ("zzz", "error: unknown class label 'zzz'\n"),
    ], ids=["u", "i", "h", "zzz"])
    def test_shapes_rejects_lm_before_any_partition(self, capsys, monkeypatch, label, err):
        def refuse(n):
            raise AssertionError("partitions visited")

        monkeypatch.setattr(tableaux, "partitions", refuse)
        code, out, got = run(
            capsys, "sequence", "--class", label, "--n", "48", "--method", "shapes",
            "--lm", "2,4",
        )
        assert (code, out, got) == (2, "", err)

    def test_shapes_names_an_unsupported_class_before_its_lm(self, capsys):
        code, out, err = run(
            capsys, "sequence", "--class", "h", "--n", "4", "--method", "shapes",
            "--lm", "2,4",
        )
        assert code == 2 and out == ""
        assert err == "error: --method shapes is not available for 'h'\n"

    @pytest.mark.parametrize("label, n", [("u", 13), ("b", 13), ("m", 14)])
    def test_budget_refusal_states_the_permutation_count(self, capsys, label, n):
        code, _, err = run(capsys, "sequence", "--class", label, "--n", str(n))
        assert code == 2
        assert f"exceeds the cap 12 ({n}! = {factorial(n)} permutations); " in err
        assert "set ULAM_BUDGET to raise it" in err

    def test_budget_refusal_approximates_a_long_count(self, capsys):
        code, _, err = run(capsys, "sequence", "--class", "u", "--n", "5000")
        assert code == 2
        assert "(5000! ~ 4.23e16325 permutations)" in err

    def test_budget_refusal_carries_a_mantissa_that_rounds_to_ten(self, capsys):
        code, out, err = run(capsys, "sequence", "--class", "u", "--n", "261")
        assert code == 2 and out == ""
        assert err == (
            "error: enumeration of 'all_permutations' at n=261 exceeds the cap 12 "
            "(261! ~ 1.00e519 permutations); set ULAM_BUDGET to raise it\n"
        )

    @pytest.mark.parametrize(
        "raw, cap", [("-1", -1), ("0", 0), ("all_permutations=0", 0), ("u=-1", -1)]
    )
    def test_budget_cap_below_one_is_usage_error(self, capsys, monkeypatch, raw, cap):
        monkeypatch.setenv("ULAM_BUDGET", raw)
        code, out, err = run(capsys, "sequence", "--class", "u", "--n", "1")
        assert code == 2 and out == ""
        assert err == f"error: ULAM_BUDGET caps must be >= 1, got {cap}\n"

    @pytest.mark.parametrize("label", ["u", "b", "m"])
    def test_sweep_classes_reject_lm(self, capsys, label):
        code, out, err = run(
            capsys, "sequence", "--class", label, "--n", "4", "--lm", "2,4"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: class ") and "takes no lm parameter" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sequence", "--class", "u", "--n", "4", "--jobs", "-1"),
            ("sequence", "--class", "u", "--n", "4", "--jobs", "0"),
            ("sequence", "--class", "i", "--n", "4", "--jobs", "2"),
            ("sequence", "--class", "p", "--n", "5", "--lm", "2,4", "--jobs", "2"),
            ("sequence", "--class", "u", "--n", "4", "--method", "shapes", "--jobs", "2"),
            ("sequence", "--class", "i", "--n", "4", "--method", "shapes", "--jobs", "0"),
            ("verify", "conjecture", "--n-max", "3", "--jobs", "0"),
        ],
    )
    def test_jobs_that_cannot_apply_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "jobs" in err

    @pytest.mark.parametrize("label, n", [("u", 1), ("u", 6), ("b", 6), ("m", 6)])
    def test_jobs_2_output_matches_serial(self, capsys, label, n):
        argv = ("sequence", "--class", label, "--n", str(n))
        _, serial, _ = run(capsys, *argv)
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0 and parallel == serial

    def test_jobs_2_in_a_fresh_interpreter_prints_the_serial_bytes(self, capsys):
        # A new process, where nothing has loaded a process pool beforehand; --jobs loads none.
        argv = ["sequence", "--class", "u", "--n", "6"]
        _, serial, _ = run(capsys, *argv)
        out = run_fresh(
            "import sys\nfrom ulamdist import cli\n"
            f"assert cli.main({argv + ['--jobs', '2']!r}) == 0\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
        )
        assert out == serial + "[]\n"


class TestVerify:
    def test_conjecture_small(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--n-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for n, line in enumerate(lines, start=1):
            data = json.loads(line)
            assert data["class"] == "all_permutations"
            assert data["n"] == n
            assert data["holds"] is True
            assert data["witnesses"] == []

    def test_injection_hook(self, capsys):
        code, out, _ = run(
            capsys, "verify", "injection", "--kind", "hook", "--n", "5", "--k", "1"
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True and data["domain_size"] == 6

    def test_injection_protected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "injection", "--kind", "protected", "--n", "6",
            "--lm", "2,4",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_formulas_small(self, capsys):
        code, out, _ = run(capsys, "verify", "formulas", "--n-max", "5")
        assert code == 0
        for line in out.strip().splitlines():
            assert json.loads(line)["ok"] is True

    @pytest.mark.parametrize("n_max", ["0", "-2"])
    def test_formulas_reject_n_max_below_one(self, capsys, n_max):
        for command in ("formulas", "conjecture"):
            code, out, err = run(capsys, "verify", command, "--n-max", n_max)
            assert code == 2 and out == ""
            assert err == f"error: n must be >= 1, got {n_max}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--kind", "hook", "--n", "5", "--k", "9"),
            ("--kind", "hook", "--n", "5", "--k", "0"),
            ("--kind", "flip", "--n", "5", "--k", "-1"),
            ("--kind", "flip", "--n", "5", "--k", "2"),
            ("--kind", "protected", "--n", "6", "--lm", "2,4", "--k", "6"),
            ("--kind", "lift", "--n", "5", "--k", "1"),
            ("--kind", "protected", "--n", "6", "--lm", "4,2"),
            ("--kind", "protected", "--n", "6", "--lm", "0,0"),
            ("--kind", "protected", "--n", "6", "--lm", "2,7"),
        ],
    )
    def test_injection_outside_the_domain_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", "injection", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [("--kind", "hook"), ("--kind", "flip"), ("--kind", "lift"),
         ("--kind", "protected", "--lm", "1,1")],
    )
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_injection_names_n_below_one_before_k(self, capsys, argv, n):
        code, out, err = run(capsys, "verify", "injection", *argv, "--n", n, "--k", "2")
        assert code == 2 and out == ""
        assert err == f"error: n must be >= 1, got {n}\n"

    def test_injection_empty_domain_without_k_is_verified(self, capsys):
        code, out, _ = run(capsys, "verify", "injection", "--kind", "flip", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["domain_size"] == 0 and data["ok"] is True

    @pytest.mark.parametrize("kind", ["hook", "flip", "lift"])
    def test_injection_rejects_lm(self, capsys, kind):
        code, out, err = run(
            capsys, "verify", "injection", "--kind", kind, "--n", "5", "--lm", "2,4"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "takes no lm parameter" in err

    @pytest.mark.parametrize(
        "case, argv",
        [
            ("hook", ("--kind", "hook", "--n", "5", "--k", "2")),
            ("protected", ("--kind", "protected", "--n", "7", "--k", "3", "--lm", "2,4")),
            ("flip", ("--kind", "flip", "--n", "7")),
        ],
    )
    def test_injection_malformed_image_exits_1(self, capsys, monkeypatch, case, argv):
        module, attr, broken, _, _ = MALFORMED_IMAGES[case]
        monkeypatch.setattr(module, attr, broken)
        code, out, _ = run(capsys, "verify", "injection", *argv)
        assert code == 1
        data = json.loads(out)
        assert data["codomain_ok"] is False and data["ok"] is False
        assert data["witnesses"][0].startswith("codomain: (")

    def test_injection_lift_map_that_raises_exits_1(self, capsys, monkeypatch):
        # Swapped images differ in shape, so lift itself raises on them.
        monkeypatch.setattr(injections, "two_row_inject", lambda t1, t2: (t2, t1))
        code, out, _ = run(capsys, "verify", "injection", "--kind", "lift", "--n", "5")
        assert code == 1
        data = json.loads(out)
        assert data["codomain_ok"] is False and data["ok"] is False
        assert data["witnesses"][0] == (
            "two-row-class codomain: ((1, 3, 2, 5, 4), (1, 2, 3, 4, 5)) -> error: shape "
            "rigidity violated: image components have shapes (5,) and (3, 2)"
        )

    def test_injection_broken_map_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(paths, "flip_inject", lambda p, q: (p, q))
        code, out, _ = run(capsys, "verify", "injection", "--kind", "flip", "--n", "7")
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False and data["preimage_identity"] is False

    @pytest.mark.parametrize(
        "argv, label, size",
        [
            (("--kind", "hook", "--n", "17"), "hooks", " (471435600 pairs)"),
            (("--kind", "hook", "--n", "17", "--k", "3"), "hooks", " (218400 pairs)"),
            (("--kind", "hook", "--n", "40"), "hooks", " (~ 2.46e22 pairs)"),
            (("--kind", "flip", "--n", "17"), "two_row_tableaux", " (69818507 pairs)"),
            (("--kind", "flip", "--n", "17", "--k", "9"), "two_row_tableaux",
             " (30086056 pairs)"),
            (("--kind", "flip", "--n", "1000"), "two_row_tableaux", " (~ 2.02e597 pairs)"),
            # Beyond n = 1000 the count is not summed, so not stated.
            (("--kind", "flip", "--n", "1001"), "two_row_tableaux", ""),
            (("--kind", "hook", "--n", "100000000"), "hooks", ""),
            # The protected domain has no closed form.
            (("--kind", "protected", "--n", "12", "--lm", "2,4"), "protected", ""),
        ],
    )
    def test_injection_budget_refusal_states_the_pair_count(self, capsys, argv, label, size):
        code, out, err = run(capsys, "verify", "injection", *argv)
        assert code == 2 and out == ""
        n, cap = argv[3], enumeration_cap(label)
        assert err == (
            f"error: enumeration of {label!r} at n={n} exceeds the cap {cap}{size}; "
            "set ULAM_BUDGET to raise it\n"
        )

    @pytest.mark.parametrize(
        "kind, label, lo", [("hook", "hooks", 1), ("flip", "two_row_tableaux", 3)]
    )
    def test_a_bad_k_is_named_before_the_budget_refusal(
        self, capsys, monkeypatch, kind, label, lo
    ):
        monkeypatch.setenv("ULAM_BUDGET", f"{label}=5")
        code, out, err = run(capsys, "verify", "injection", "--kind", kind, "--n", "6", "--k", "9")
        assert code == 2 and out == ""
        assert err == f"error: {kind} injection at n=6 needs {lo} <= k <= 4, got k=9\n"

    @pytest.mark.parametrize(
        "command", [("verify", "injection", "--kind"), ("sequence", "--class")]
    )
    def test_a_bad_lm_is_named_before_the_budget_refusal(self, capsys, monkeypatch, command):
        monkeypatch.setenv("ULAM_BUDGET", "protected=5")
        code, out, err = run(capsys, *command, "protected", "--n", "6", "--lm", "4,2")
        assert code == 2 and out == ""
        assert err == "error: lm must satisfy 1 <= l <= m <= n=6, got 4,2\n"

    def test_sequence_budget_refusal_of_hooks_states_no_pairs(self, capsys):
        code, out, err = run(capsys, "sequence", "--class", "h", "--n", "17")
        assert code == 2 and out == ""
        assert err == (
            "error: enumeration of 'hooks' at n=17 exceeds the cap 16; "
            "set ULAM_BUDGET to raise it\n"
        )


class TestRsk:
    def test_forward(self, capsys):
        code, out, _ = run(capsys, "rsk", "--perm", "3,1,4,2")
        assert code == 0
        assert out.strip() == "1,2/3,4;1,3/2,4"

    def test_inverse_round_trip(self, capsys):
        _, out, _ = run(capsys, "rsk", "--perm", "3,1,4,2")
        code, out, _ = run(capsys, "rsk", "--inverse", out.strip())
        assert code == 0
        assert out.strip() == "3,1,4,2"

    def test_malformed_perm(self, capsys):
        code, _, err = run(capsys, "rsk", "--perm", "3,1,x")
        assert code == 2
        assert "'x'" in err

    def test_inverse_without_a_pair_is_usage_error(self, capsys):
        code, out, err = run(capsys, "rsk", "--inverse", "1,2")
        assert (code, out) == (2, "")
        assert err == "error: expected two tableaux separated by ';' in '1,2'\n"


@pytest.mark.parametrize("argv, err", [
    (("rsk", "--perm", "\u00b2"), "invalid permutation entry '\u00b2' in '\u00b2'"),
    (("rsk", "--perm", "1,--2"), "invalid permutation entry '--2' in '1,--2'"),
    (("inject", "hook", "--t1", "\u00b2", "--t2", "1"), "invalid tableau entry '\u00b2' in '\u00b2'"),
    (("sequence", "--class", "p", "--n", "3", "--lm", "\u00b2,1"), "invalid l,m value '\u00b2,1'"),
], ids=["perm", "perm-double-minus", "tableau", "lm"])
def test_parsers_name_a_digit_int_cannot_read(capsys, argv, err):
    # A superscript digit passes str.isdigit() but not int(); the parser names it.
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ("rsk", "--perm", "2,1"),
    ("inject", "hook", "--t1", "1/2/3", "--t2", "1,2,3"),
    ("sequence", "--class", "p", "--n", "3", "--lm", "2,3"),
], ids=["perm", "tableau", "lm"])
def test_parsers_read_arabic_indic_digits(capsys, argv):
    # int() reads them, so they mean what the ASCII digits do.
    digits = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    indic = [a if a.startswith("-") else a.translate(digits) for a in argv]
    assert indic != list(argv)
    assert run(capsys, *indic) == run(capsys, *argv)


class TestInject:
    def test_hook(self, capsys):
        code, out, _ = run(capsys, "inject", "hook", "--t1", "1/2/3", "--t2", "1,2,3")
        assert code == 0
        assert out.strip() == "1,2/3;1,3/2"

    def test_domain_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "inject", "hook", "--t1", "1,2/3", "--t2", "1,2,3")
        assert code == 2
        assert err.startswith("error:")

    def test_tableaux_of_different_sizes_are_usage_error(self, capsys):
        code, out, err = run(capsys, "inject", "hook", "--t1", "1/2/3", "--t2", "1,2,3,4")
        assert code == 2 and out == ""
        assert err == "error: t1 and t2 differ in size: 3 vs 4\n"

    def test_malformed_tableau(self, capsys):
        code, _, err = run(capsys, "inject", "hook", "--t1", "1,q/3", "--t2", "1,2,3")
        assert code == 2
        assert "'q'" in err


class TestPath:
    def test_tableau_to_path(self, capsys):
        code, out, _ = run(capsys, "path", "--tableau", "1,3,4,5,6,7/2")
        assert code == 0
        assert out.strip() == "ENEEEEE"

    def test_flip(self, capsys):
        code, out, _ = run(capsys, "path", "flip", "--p", "EENENNE", "--q", "ENEEEEE")
        assert code == 0
        assert out.strip() == "EENENEE ENEEENE"

    def test_invalid_path_token(self, capsys):
        code, _, err = run(capsys, "path", "flip", "--p", "EEX", "--q", "ENE")
        assert code == 2
        assert "'X'" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "path")
        assert code == 2

    @pytest.mark.parametrize("tableau", ["garbage", "1,3,4,5,6,7/2"])
    def test_tableau_with_flip_is_usage_error(self, capsys, tableau):
        code, out, err = run(
            capsys, "path", "--tableau", tableau, "flip", "--p", "ENEN", "--q", "EEEE"
        )
        assert code == 2 and out == ""
        assert err == "error: --tableau does not go with the flip subcommand\n"


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n, code, out, err", [
        ("3", 0, "n,k,count\n3,1,1\n3,2,4\n3,3,1\n", ""),
        ("0", 2, "", "error: n must be >= 1, got 0\n"),
    ])
    def test_running_the_module_exits_with_the_code_of_main(self, n, code, out, err):
        src = os.path.dirname(os.path.dirname(ulamdist.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ulamdist.cli", "sequence", "--class", "u", "--n", n],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


# ---------------------------------------------------------------------------
# A fuzz over the parser's own vocabulary


INTS = [str(i) for i in range(-3, 9)]
TABLEAUX = ["1,2/3", "1,3/2", "1,2,3", "1/2/3", "1,2/3,4", "1,2,4/3", "1,3,4,5/2",
            "2,1", "1,2/2", "1,,2", "1/", "a", "", "1;2"]
VALUES = {
    "--class": [name for name, row in census._CLASSES.items()]
    + [row.alias for row in census._CLASSES.values() if row.alias] + ["x", "Hooks", ""],
    "--n": INTS, "--n-max": INTS, "--k": INTS, "--jobs": INTS,
    "--format": ["csv", "json", "xml"],
    "--method": ["enumerate", "shapes", "exact"],
    "--kind": ["hook", "flip", "protected", "lift", "rsk"],
    "--lm": ["1,1", "2,4", "2,3", "3,5", "4,2", "0,0", "2", "2,4,6", "a,b", "-1,2", " 2, 4"],
    "--perm": ["3,1,4,2", "1", "2,1", "1,1", "0,1", "1,3", "-1", "a", "1,,2", ""],
    "--inverse": ["1,2/3;1,3/2", "1,3/2;1,3/2", "1;1", "1,2;1/2", "1,2/3", "1;2;3", ";", "x;y"],
    "--t1": TABLEAUX, "--t2": TABLEAUX, "--tableau": TABLEAUX,
    "--p": ["ENEN", "EEEE", "EENN", "EENENNE", "ENEEEEE", "NE", "EX", "E", ""],
    "--q": ["ENEN", "EEEE", "EENE", "EEEEENE", "ENEEEEE", "NE", "en", "E", ""],
    "--help": [],
}
COMMANDS = {
    ("sequence",): ["--class", "--n", "--format", "--lm", "--jobs", "--method"],
    ("verify", "conjecture"): ["--n-max", "--jobs"],
    ("verify", "injection"): ["--kind", "--n", "--k", "--lm"],
    ("verify", "formulas"): ["--n-max"],
    ("rsk",): ["--perm", "--inverse"],
    ("inject", "hook"): ["--t1", "--t2"],
    ("path",): ["--tableau"],
    ("path", "flip"): ["--p", "--q"],
    ("verify",): [], ("inject",): [], (): [], ("frobnicate",): [],
}
ANY_VALUE = sorted({v for values in VALUES.values() for v in values})


@st.composite
def argvs(draw):
    """A subcommand, a subset of its own flags and at most one other, in
    any order, each flag with a value from its own vocabulary or any."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command] or ["--help"]), unique=True))
    flags += draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=1))
    argv = list(command)
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if VALUES[flag]:
            argv.append(draw(st.sampled_from(VALUES[flag]) | st.sampled_from(ANY_VALUE)))
    return argv


@settings(derandomize=True, deadline=None)
@given(argvs())
def test_any_command_exits_0_or_2_without_a_traceback(argv):
    # Every n is at most 8 and the budget 7, so each command ends fast;
    # --method shapes has no budget, and n <= 8 keeps it cheap too.
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ULAM_BUDGET": "7"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 2:
        assert "error: " in err.getvalue() or "usage: " in err.getvalue(), argv
