"""The CI smoke step's checks of the command line, run in process.

``SMOKE`` pins the paper's five published tables ``P_3 .. P_7`` at
points and the agreement of the ternary routes past them, each as an
argv run in process through ``cli.main``.  An entry's expected output is
either the exact stdout, which ends in a newline, or another argv whose
stdout must match.  Every entry exits 0 with nothing on stderr.
``scripts/reproduce_tables.py`` runs through ``runpy`` against the five
published lines, and one cold ``python -m forminv.cli`` process covers
the module entry point.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import forminv
from forminv import cli

ROOT = Path(__file__).resolve().parent.parent

SMOKE = [
    # the README's verify line, all five lines in their order; the first
    # pins the peel comparison count, so a change that skips some of them
    # fails
    ("verify --d-max 4 --n-max 9 --lambda-max 20",
     "PASS  ternary method agreement (40 peel comparisons)\n"
     "PASS  binary method agreement\n"
     "PASS  trivial-rep functional sweep\n"
     "PASS  weight table totals\n"
     "PASS\n"),
    # the trivial-rep functional over all 1681 lambda up to (40, 40), far
    # past the other tests' 8 x 8 and the line above's 21 x 21
    ("verify --d-max 1 --n-max 3 --lambda-max 40",
     "PASS  ternary method agreement (4 peel comparisons)\n"
     "PASS  binary method agreement\n"
     "PASS  trivial-rep functional sweep\n"
     "PASS  weight table totals\n"
     "PASS\n"),
    # the README's example counts
    ("count --form ternary --d 5 --n 18", "178\n"),
    ("count --form binary --d 2 --n 2", "1\n"),
    # peel, by its hexagon-rule sweep, past the benchmark oracle's sizes
    # (d <= 4, n <= 12; d = 5, n <= 9): counting's value at d = 5, n = 12
    ("count --form ternary --d 5 --n 12 --method counting", "19\n"),
    ("count --form ternary --d 5 --n 12 --method peel", "19\n"),
    # peel a degree further: the published P_6 coefficient of t^12
    ("count --form ternary --d 6 --n 12 --method peel", "99\n"),
    # and a degree further still: the published P_7 coefficient of t^12
    ("count --form ternary --d 7 --n 12 --method peel", "421\n"),
    # and the published P_7 coefficients of t^18 and t^21, under the
    # default work limit
    ("count --form ternary --d 7 --n 18 --method peel", "60303\n"),
    ("count --form ternary --d 7 --n 21 --method peel", "548966\n"),
    # peel by its ray sweep at the largest tables size, (8, 24), against
    # counting's value there
    ("count --form ternary --d 8 --n 24 --method counting", "162536982\n"),
    ("count --form ternary --d 8 --n 24 --method peel", "162536982\n"),
    # peel on the dominant chamber, past the sizes the full table allowed
    # under the default work limit: (10, 21) against counting, and
    # (12, 24) against counting's value there
    ("count --form ternary --d 10 --n 21 --method peel",
     "count --form ternary --d 10 --n 21 --method counting"),
    ("count --form ternary --d 12 --n 24 --method peel", "34265747436043\n"),
    # pqbinom: the last entry of the published d = 7 table, and a series
    # past the published range that must equal counting's
    ("count --form ternary --d 7 --n 21 --method pqbinom", "548966\n"),
    ("series --form ternary --d 4 --max 60 --method pqbinom",
     "series --form ternary --d 4 --max 60 --method counting"),
    # the pq-binomial table grows with d: a degree past the checks above
    ("series --form ternary --d 10 --max 21 --method pqbinom",
     "series --form ternary --d 10 --max 21 --method counting"),
    # genfunc, on graded packed ints floored on a+b: the same three checks
    ("count --form ternary --d 7 --n 21 --method genfunc", "548966\n"),
    ("series --form ternary --d 4 --max 60 --method genfunc",
     "series --form ternary --d 4 --max 60 --method counting"),
    ("series --form ternary --d 10 --max 21 --method genfunc",
     "series --form ternary --d 10 --max 21 --method counting"),
    # genfunc and pqbinom, each piece floored by the largest factor still
    # to fold it, against counting at longer orders and degrees
    ("series --form ternary --d 7 --max 42 --method genfunc",
     "series --form ternary --d 7 --max 42 --method counting"),
    ("series --form ternary --d 7 --max 42 --method pqbinom",
     "series --form ternary --d 7 --max 42 --method counting"),
    ("series --form ternary --d 12 --max 24 --method genfunc",
     "series --form ternary --d 12 --max 24 --method counting"),
    ("series --form ternary --d 12 --max 24 --method pqbinom",
     "series --form ternary --d 12 --max 24 --method counting"),
    ("series --form ternary --d 4 --max 120 --method pqbinom",
     "series --form ternary --d 4 --max 120 --method counting"),
    # hi is empty at d <= 2: lo alone, seeded from G_2 and ending in G_0's
    # running sum with no factor after it
    ("series --form ternary --d 2 --max 90 --method pqbinom",
     "series --form ternary --d 2 --max 90 --method counting"),
    # a point reads one degree, so its reader is exact only there: genfunc
    # and pqbinom at d = 12, n = 24 against counting's value
    ("count --form ternary --d 12 --n 24 --method genfunc", "34265747436043\n"),
    ("count --form ternary --d 12 --n 24 --method pqbinom", "34265747436043\n"),
    # 3 does not divide 5*31: the reader is built at degree 30, and degree
    # 31 reads 0
    ("series --form ternary --d 5 --max 31 --method pqbinom",
     "series --form ternary --d 5 --max 31 --method counting"),
    # counting, on the grid window: a point, and the slowest series of the
    # benchmark's tables against genfunc
    ("count --form ternary --d 7 --n 21 --method counting", "548966\n"),
    ("series --form ternary --d 9 --max 24 --method counting",
     "series --form ternary --d 9 --max 24 --method genfunc"),
    # binary qbinom, built by the q-Pascal recurrence, against omega
    ("series --form binary --d 12 --max 30 --method qbinom",
     "series --form binary --d 12 --max 30 --method omega"),
    # a binary series is one reader per route, so a long one is quick
    ("series --form binary --d 8 --max 400 --method omega",
     "series --form binary --d 8 --max 400 --method qbinom"),
]

TABLES = (
    "P_3(t) = 1 + t^4 + t^6 + t^8 + t^10 + 2t^12 + t^14 + 2t^16 + 2t^18 + 2t^20"
    " + 2t^22 + 3t^24 + 2t^26 + ...\n"
    "P_4(t) = 1 + t^3 + 2t^6 + 4t^9 + 7t^12 + 11t^15 + 19t^18 + 29t^21 + 44t^24"
    " + 67t^27 + 98t^30 + ...\n"
    "P_5(t) = 1 + 2t^6 + t^9 + 19t^12 + 24t^15 + 178t^18 + 383t^21 + 1470t^24"
    " + 3331t^27 + 9381t^30 + ...\n"
    "P_6(t) = 1 + t^3 + t^4 + t^5 + 4t^6 + 5t^7 + 8t^8 + 17t^9 + 28t^10 + 48t^11"
    " + 99t^12 + 172t^13 + ...\n"
    "P_7(t) = 1 + 3t^6 + 13t^9 + 421t^12 + 4992t^15 + 60303t^18 + 548966t^21 + ...\n"
)


def _stdout(capsys, argv):
    """What ``cli.main`` prints for ``argv``, which must exit 0 with an
    empty stderr."""
    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), argv
    return out


@pytest.mark.parametrize(
    "argv, want",
    SMOKE,
    ids=["-".join(w for w in argv.split() if not w.startswith("--")) for argv, _ in SMOKE],
)
def test_cli_main(capsys, argv, want):
    out = _stdout(capsys, argv)
    if not want.endswith("\n"):
        want = _stdout(capsys, want)
    assert out and out == want


def test_reproduce_tables(capsys):
    runpy.run_path(str(ROOT / "scripts" / "reproduce_tables.py"), run_name="__main__")
    assert capsys.readouterr() == (TABLES, "")


def test_module_entry_point():
    # a cold interpreter, as ``python -m forminv.cli`` runs from a shell
    src = str(Path(forminv.__file__).resolve().parent.parent)
    argv = "-m forminv.cli count --form ternary --d 5 --n 18".split()
    result = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "178\n", "")
