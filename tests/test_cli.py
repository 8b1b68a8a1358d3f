import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import forminv
from forminv import cli, counts


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_ternary_quintic(self, capsys):
        code, out, _ = run(
            capsys, "count", "--form", "ternary", "--d", "5", "--n", "18"
        )
        assert code == 0
        assert out == "178\n"

    def test_congruence_zero(self, capsys):
        code, out, _ = run(
            capsys, "count", "--form", "ternary", "--d", "4", "--n", "4"
        )
        assert code == 0
        assert out == "0\n"

    def test_binary(self, capsys):
        code, out, _ = run(
            capsys, "count", "--form", "binary", "--d", "2", "--n", "2"
        )
        assert code == 0
        assert out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--form", "ternary", "--d", "3", "--n", "4", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "form": "ternary",
            "d": 3,
            "n": 4,
            "method": "counting",
            "value": "1",
        }

    def test_explicit_method(self, capsys):
        code, out, _ = run(
            capsys,
            "count", "--form", "ternary", "--d", "3", "--n", "6",
            "--method", "genfunc",
        )
        assert code == 0
        assert out == "1\n"

    def test_method_invalid_for_form(self, capsys):
        code, _, err = run(
            capsys,
            "count", "--form", "binary", "--d", "2", "--n", "2",
            "--method", "peel",
        )
        assert code == 2
        assert "invalid" in err

    def test_ternary_method_for_binary_form(self, capsys):
        code, out, err = run(
            capsys,
            "count", "--form", "binary", "--d", "2", "--n", "2",
            "--method", "genfunc",
        )
        assert (code, out) == (2, "")
        assert err == "error: method 'genfunc' invalid for binary forms\n"

    def test_out_of_memory(self, capsys, monkeypatch):
        from forminv import counts

        def exhausted(d, order):
            raise MemoryError

        monkeypatch.setitem(counts.TERNARY_METHODS, "counting", exhausted)
        code, out, err = run(
            capsys, "count", "--form", "ternary", "--d", "3", "--n", "4"
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: out of memory")

    def test_work_limit_exceeded(self, capsys):
        code, _, err = run(
            capsys,
            "count", "--form", "ternary", "--d", "4", "--n", "9",
            "--method", "peel", "--work-limit", "10",
        )
        assert code == 3
        assert err

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x"
        code, out, err = run(
            capsys,
            "count", "--form", "ternary", "--d", "3", "--n", "4",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert not target.exists()


class TestSeries:
    def test_septic_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "7", "--max", "21",
            "--skip-zeros",
        )
        assert code == 0
        rows = [tuple(map(int, line.split("\t"))) for line in out.splitlines()]
        assert rows == [
            (0, 1), (6, 3), (9, 13), (12, 421),
            (15, 4992), (18, 60303), (21, 548966),
        ]

    def test_sextic_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "6", "--max", "13",
            "--skip-zeros",
        )
        assert code == 0
        rows = [tuple(map(int, line.split("\t"))) for line in out.splitlines()]
        assert rows == [
            (0, 1), (3, 1), (4, 1), (5, 1), (6, 4), (7, 5), (8, 8),
            (9, 17), (10, 28), (11, 48), (12, 99), (13, 172),
        ]

    def test_binary_constant_form(self, capsys):
        code, out, _ = run(
            capsys, "series", "--form", "binary", "--d", "0", "--max", "3"
        )
        assert code == 0
        assert out == "0\t1\n1\t1\n2\t1\n3\t1\n"

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "3", "--max", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == ["0,1", "1,0", "2,0", "3,0", "4,1", "5,0", "6,1"]

    def test_json_schema_and_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "4", "--max", "9",
            "--format", "json",
        )
        assert code == 0
        payload = out.rstrip("\n")
        obj = json.loads(payload)
        assert list(obj) == ["form", "d", "method", "coefficients"]
        assert obj["form"] == "ternary"
        assert obj["d"] == 4
        assert obj["method"] == "counting"
        assert obj["coefficients"][3] == {"n": 3, "value": "1"}
        assert all(
            isinstance(c["value"], str) and c["value"].isdigit()
            for c in obj["coefficients"]
        )
        # byte-identical round trip
        assert json.dumps(obj) == payload

    def test_skip_zeros_preserves_nonzero_rows(self, capsys):
        _, full, _ = run(
            capsys, "series", "--form", "ternary", "--d", "4", "--max", "12"
        )
        _, sparse, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "4", "--max", "12",
            "--skip-zeros",
        )
        full_rows = [l for l in full.splitlines() if not l.endswith("\t0")]
        assert full_rows == sparse.splitlines()

    def test_binary_method_for_ternary_form(self, capsys):
        code, out, err = run(
            capsys,
            "series", "--form", "ternary", "--d", "3", "--max", "4",
            "--method", "omega",
        )
        assert (code, out) == (2, "")
        assert err == "error: method 'omega' invalid for ternary forms\n"

    def test_json_names_default_method(self, capsys):
        code, out, _ = run(
            capsys, "series", "--form", "binary", "--d", "2", "--max", "2",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["method"] == "omega"

    def test_out_of_memory(self, capsys, monkeypatch):
        from forminv import counts

        def exhausted(d, order):
            raise MemoryError

        argv = (
            "series", "--form", "ternary", "--d", "3", "--max", "6",
            "--method", "pqbinom",
        )
        assert run(capsys, *argv)[0] == 0
        # the same request again builds its own reader: nothing from the
        # first run may serve it
        monkeypatch.setitem(counts.TERNARY_METHODS, "pqbinom", exhausted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: out of memory")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.txt"
        code, out, _ = run(
            capsys,
            "series", "--form", "ternary", "--d", "3", "--max", "4",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text() == "0\t1\n1\t0\n2\t0\n3\t0\n4\t1\n"


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "3", "--n-max", "6", "--lambda-max", "8",
        )
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_detects_corruption(self, capsys, monkeypatch):
        from forminv import counts

        real = counts.TERNARY_METHODS["peel"]

        def corrupted(d, n, work_limit=counts.DEFAULT_WORK_LIMIT):
            bump = 1 if (d, n) == (3, 4) else 0
            return real(d, n, work_limit=work_limit) + bump

        monkeypatch.setitem(counts.TERNARY_METHODS, "peel", corrupted)
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "3", "--n-max", "6", "--lambda-max", "4",
        )
        assert code == 1
        # one check fails, and every check still prints, in its order
        assert out.splitlines() == [
            "FAIL  ternary method agreement (19 peel comparisons): "
            "counting=1 but peel=2 at d=3, n=4",
            "PASS  binary method agreement",
            "PASS  trivial-rep functional sweep",
            "PASS  weight table totals",
            "FAIL",
        ]

    @pytest.mark.parametrize(
        "form, method, line",
        [
            (
                "ternary", "genfunc",
                "FAIL  ternary method agreement (14 peel comparisons): "
                "counting=1 but genfunc=2 at d=3, n=4",
            ),
            (
                "binary", "qbinom",
                "FAIL  binary method agreement: omega=1 but qbinom=2 at d=2, n=2",
            ),
        ],
        ids=["ternary", "binary"],
    )
    def test_detects_series_disagreement(
        self, capsys, monkeypatch, form, method, line
    ):
        # one wrong count, at (d, n), in a series method that is not the
        # default: the cell the operator reads with +1 is bumped
        from forminv import counts

        table = counts.BINARY_METHODS if form == "binary" else counts.TERNARY_METHODS
        real = table[method]
        d, n = (3, 4) if form == "ternary" else (2, 2)

        def corrupted(dd, order):
            coeff = real(dd, order)
            w = dd * n // (3 if form == "ternary" else 2)

            def read(m, *cell):
                bump = (dd, m) == (d, n) and set(cell) == {w}
                return coeff(m, *cell) + bump

            return read

        monkeypatch.setitem(table, method, corrupted)
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "3", "--n-max", "6", "--lambda-max", "4",
        )
        assert code == 1
        assert line in out.splitlines()
        assert out.splitlines()[-1] == "FAIL"

    def test_detects_functional_failure(self, capsys, monkeypatch):
        # E(2, 1) one too high: the functional sweep fails there, and it is
        # the only check that fails
        from forminv import sl3

        real = sl3.e_lambda
        monkeypatch.setattr(sl3, "e_lambda", lambda lam: real(lam) + (lam == (2, 1)))
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "3", "--n-max", "6", "--lambda-max", "4",
        )
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  trivial-rep functional sweep: E(2,1) = 1, expected 0", "FAIL"]

    def test_detects_table_total_failure(self, capsys, monkeypatch):
        # one weight of the d = 2, n = 3 table one too high: its total is
        # 57 against the 56 monomials of degree 3 in 6 coefficients.  Peel
        # builds its own tables (``counts`` binds ``weight_table`` by name),
        # so only the table totals fail
        from forminv import weights

        real = weights.weight_table

        def corrupted(d, n):
            table = real(d, n)
            if (d, n) == (2, 3):
                table[next(iter(table))] += 1
            return table

        monkeypatch.setattr(weights, "weight_table", corrupted)
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "3", "--n-max", "6", "--lambda-max", "4",
        )
        assert code == 1
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert fails == ["FAIL  weight table totals: total 57 != 56 at d=2, n=3", "FAIL"]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--d-max", "0"), "--d-max must be >= 1"),
            (("--d-max", "-1"), "--d-max must be >= 1"),
            (("--n-max", "-1"), "--n-max and --lambda-max must be >= 0"),
            (("--lambda-max", "-1"), "--n-max and --lambda-max must be >= 0"),
        ],
    )
    def test_rejects_vacuous_ranges(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


    def test_unwritable_out(self, capsys, tmp_path):
        # exit 2, not 1: an I/O error is not a failed check
        target = tmp_path / "missing" / "y"
        code, out, err = run(
            capsys,
            "verify", "--d-max", "2", "--n-max", "3", "--lambda-max", "2",
            "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {target}: ")

    def test_reports_peel_comparisons(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "2", "--n-max", "3", "--lambda-max", "2",
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "PASS  ternary method agreement (8 peel comparisons)"
        )

    def test_fails_when_no_peel_comparison_runs(self, capsys):
        # limit 1 is below peel's estimate at every (d, n), n = 0 included
        code, out, _ = run(
            capsys,
            "verify", "--d-max", "2", "--n-max", "3", "--lambda-max", "2",
            "--work-limit", "1",
        )
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL  ternary method agreement (0 peel comparisons): "
            "no peel comparison ran within --work-limit 1"
        )
        assert out.splitlines()[-1] == "FAIL"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_out_write_failure_is_a_usage_error(self, capsys):
        # every check passes; only writing the report fails, and that
        # must not read as a failed check (exit 1)
        code, out, err = run(
            capsys,
            "verify", "--d-max", "2", "--n-max", "3", "--lambda-max", "2",
            "--out", "/dev/full",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write --out /dev/full: ")


class TestRouteTables:
    def test_method_choices_are_the_tables(self):
        from forminv import counts

        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        want = set(counts.BINARY_METHODS) | set(counts.TERNARY_METHODS)
        for command in ("count", "series"):
            action = next(
                a for a in sub.choices[command]._actions if a.dest == "method"
            )
            assert set(action.choices) == want

    @pytest.mark.parametrize(
        "form, method, w", [("binary", "qbinom", 6), ("ternary", "genfunc", 4)]
    )
    def test_count_and_series_run_the_table_entry(
        self, capsys, monkeypatch, form, method, w
    ):
        # ``_run`` looks each reader builder up in the table at call
        # time; the bumped cell is the one the operator reads with +1 at
        # d = 2, n = 6
        from forminv import counts

        table = counts.BINARY_METHODS if form == "binary" else counts.TERNARY_METHODS
        real = table[method]

        def shifted(d, order):
            coeff = real(d, order)
            return lambda n, *cell: coeff(n, *cell) + (n == 6 and set(cell) == {w})

        want = dict(counts.poincare_series(form, 2, 8))
        want[6] += 1
        monkeypatch.setitem(table, method, shifted)
        assert counts.count(form, 2, 6, method) == want[6]
        assert dict(counts.poincare_series(form, 2, 8, method=method)) == want
        flags = ("--form", form, "--d", "2", "--method", method)
        assert run(capsys, "count", *flags, "--n", "6") == (0, f"{want[6]}\n", "")
        code, out, _ = run(capsys, "series", *flags, "--max", "8")
        assert (code, out.splitlines()[6]) == (0, f"6\t{want[6]}")


class TestParserBuild:
    # build_parser hands every HelpFormatter the width argparse would ask
    # the terminal for; argparse builds one formatter per add_argument
    def test_asks_the_terminal_once(self, monkeypatch):
        import shutil

        real, calls = shutil.get_terminal_size, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        cli.build_parser()
        assert len(calls) == 1

    @staticmethod
    def _parsers():
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        return [parser, *sub.choices.values()]

    @staticmethod
    def _render(parsers):
        """Each parser's help and error text."""
        texts = []
        for p in parsers:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
                p.error("a usage error")
            texts += [p.format_help(), err.getvalue()]
        return texts

    @pytest.mark.parametrize("columns", ["40", "80", "200", None])
    def test_output_is_argparses_own(self, monkeypatch, columns):
        # the same parsers, rendered again with argparse's own formatter,
        # which asks the terminal at each use
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        parsers = self._parsers()
        built = self._render(parsers)
        for p in parsers:
            p.formatter_class = argparse.HelpFormatter
        assert built == self._render(parsers)
        # the prog build_parser gives add_subparsers is the one argparse
        # would render
        assert [p.prog for p in parsers] == [
            "forminv", "forminv count", "forminv series", "forminv verify"
        ]


class TestWorkLimitFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--form", "ternary", "--d", "3", "--n", "4"),
            ("series", "--form", "ternary", "--d", "3", "--max", "4"),
            ("verify", "--d-max", "2", "--n-max", "3", "--lambda-max", "2"),
        ],
    )
    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_rejects_limit_below_one(self, capsys, argv, limit):
        code, out, err = run(capsys, *argv, "--work-limit", limit)
        assert (code, out) == (2, "")
        assert err == "error: --work-limit must be >= 1\n"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--form", "ternary", "--bogus", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("count", "--form", "ternary", "--d", "-1", "--n", "4"), "--d"),
            (("count", "--form", "binary", "--d", "2", "--n", "-1"), "--n"),
            (("series", "--form", "binary", "--d", "-1", "--max", "4"), "--d"),
            (("series", "--form", "ternary", "--d", "3", "--max", "-1"), "--max"),
        ],
    )
    def test_negative_degree_names_its_flag(self, capsys, argv, flag):
        # the message names the flag the user typed, as verify's do
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be >= 0\n"

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "count", "--form", "ternary")
        assert code == 2

    # bench is not a verb: timings come from perfbench/run.py
    @pytest.mark.parametrize("command", ["frobnicate", "bench"])
    def test_unknown_command(self, capsys, command):
        code, out, err = run(capsys, command, "--d", "2", "--max", "2")
        assert (code, out) == (2, "")
        assert f"invalid choice: '{command}'" in err


# The contract test's flags: a good value nine times in ten; otherwise a
# negative size, a string that is no int, or a choice that is none.
def _mostly(good, bad):
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


def _size(top):
    junk = st.sampled_from(["x", "1.5", "", "-", "3x", "0x1"])
    return _mostly(st.integers(0, top).map(str), st.integers(-3, -1).map(str) | junk)


def _choice(values, junk):
    return _mostly(st.sampled_from(values), st.just(junk))


def _flag(name, values, required=True):
    """[name, value], or no flag at all: one time in ten for a required
    flag, and half the time for an optional one."""
    pair = values.map(lambda v: [name, v])
    return _mostly(pair, st.just([])) if required else st.one_of(pair, st.just([]))


def _switch(name):
    return st.sampled_from([[], [name]])


_METHOD = _flag("--method", _choice(cli._ALL_METHODS, "nope"), False)
_FORM = _flag("--form", _choice(["binary", "ternary"], "quaternary"))
_WORK_LIMIT = _flag(
    "--work-limit", st.sampled_from(["0", "1", str(counts.DEFAULT_WORK_LIMIT)]), False
)
# every flag but --out, and --help one time in ten; verify's defaults are
# no small sizes, so its size flags are always given
_COMMANDS = {
    "count": [_FORM, _flag("--d", _size(6)), _flag("--n", _size(10)), _METHOD,
              _switch("--json"), _WORK_LIMIT],
    "series": [_FORM, _flag("--d", _size(6)), _flag("--max", _size(10)), _METHOD,
               _flag("--format", _choice(["text", "json", "csv"], "xml"), False),
               _switch("--skip-zeros"), _WORK_LIMIT],
    "verify": [_size(top).map(lambda v, f=flag: [f, v])
               for flag, top in [("--d-max", 2), ("--n-max", 4), ("--lambda-max", 3)]]
              + [_WORK_LIMIT],
}


@st.composite
def _argv(draw):
    """argv, and its flags that take a value as flag -> value."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    flags = draw(st.permutations([draw(flag) for flag in _COMMANDS[command]]))
    if draw(st.integers(0, 9)) == 0:
        flags.append(["--help"])
    argv = [command] + [word for flag in flags for word in flag]
    return argv, dict(flag for flag in flags if len(flag) == 2)


def _rows(out, fmt):
    """(n, value) per row of a series' stdout in ``fmt``."""
    if fmt == "json":
        return [(row["n"], int(row["value"])) for row in json.loads(out)["coefficients"]]
    lines = out.splitlines()[1:] if fmt == "csv" else out.splitlines()
    sep = "," if fmt == "csv" else "\t"
    return [tuple(map(int, line.split(sep))) for line in lines]


def _pairs(command, *words):
    """An argv of flags that each take a value, as ``_argv`` draws it."""
    return [command, *words], dict(zip(words[::2], words[1::2]))


# the two rarest outcomes, over the work limit
@given(_argv())
@example(_pairs("count", "--form", "ternary", "--d", "3", "--n", "3",
                "--method", "peel", "--work-limit", "1"))
@example(_pairs("verify", "--d-max", "1", "--n-max", "1", "--lambda-max", "1",
                "--work-limit", "1"))
@settings(max_examples=150, deadline=None)
def test_cli_contract(drawn):
    # every argv over count, series and verify exits 0, 2 or 3, with no
    # traceback and, on a nonzero exit, one error line; exit 0 prints what
    # the form's default method counts
    argv, flags = drawn
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if "--help" in argv and code == 0:
        assert out.startswith("usage: forminv") and err == ""
        return
    if argv[0] == "verify" and flags.get("--work-limit") == "1" and code == 1:
        # a check that failed is exit 1 with a report, not an error: at
        # limit 1 no peel comparison fits, which verify reports as FAIL
        assert out.splitlines()[0].endswith("no peel comparison ran within --work-limit 1")
        assert (out.splitlines()[-1], err) == ("FAIL", "")
        return
    assert code in (0, 2, 3), (argv, out, err)
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert out == ""
        return
    assert err == ""
    if argv[0] == "verify":
        assert out.splitlines()[-1] == "PASS"
        return
    form, d = flags["--form"], int(flags["--d"])
    if argv[0] == "count":
        n = int(flags["--n"])
        value = json.loads(out)["value"] if "--json" in argv else out
        assert int(value) == counts.count(form, d, n)
    else:
        want = counts.poincare_series(
            form, d, int(flags["--max"]), include_zeros="--skip-zeros" not in argv
        )
        assert _rows(out, flags.get("--format", "text")) == want


class TestRun:
    # run() is the forminv console entry point: main on sys.argv, whose
    # return is the exit status
    @pytest.mark.parametrize(
        "argv, status, out",
        [
            (("count", "--form", "ternary", "--d", "5", "--n", "18"), 0, "178\n"),
            (("count", "--form", "ternary"), 2, ""),
        ],
        ids=["count", "usage-error"],
    )
    def test_exits_with_main_status(self, capsys, monkeypatch, argv, status, out):
        monkeypatch.setattr(sys, "argv", ["forminv", *argv])
        with pytest.raises(SystemExit) as info:
            cli.run()
        assert info.value.code == status
        assert capsys.readouterr().out == out


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh isolated interpreter, so nothing this test run imported
    # counts; site may load shutil itself, so only a run without site sees
    # build_parser's shutil import move to the top of cli
    src = str(Path(forminv.__file__).resolve().parent.parent)
    for flags, banned in [
        (["-I"], {"dataclasses", "inspect"}),
        (["-I", "-S"], {"dataclasses", "inspect", "shutil"}),
    ]:
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import forminv.cli; "
            f"print(sorted({banned!r} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n", flags
