"""The benchmark's workloads: seeded request lists and their exact answers.

A request is either a ``forminv`` command line, run in-process through
``forminv.cli.main(argv)``, or a call to a public ``sl3`` function where no
CLI verb exists.  Every request carries the value it must produce, taken
from ``reference.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

TABLE_SIZES = ((3, 26), (4, 30), (5, 30), (6, 13), (7, 21), (8, 24), (9, 24), (10, 21))
CROSSCHECK_D = range(1, 8)
CROSSCHECK_MAX = 15
BINARY_D = range(1, 11)
BINARY_N = range(21)
PEEL_SIZES = tuple((d, 12) for d in range(1, 5)) + ((5, 9),)
LAMBDA_RANGE = 26
RECOMPOSITIONS = 40
RECOMPOSE_SUPPORT_SEED = 20260823


class Reference:
    """Exact invariant counts, looked up by (d, n)."""

    def __init__(self, doc: dict):
        self.published = {
            int(d): (t["n_max"], {int(n): int(v) for n, v in t["nonzero"].items()})
            for d, t in doc["ternary_published"].items()
        }
        self.extended = {
            int(d): [int(v) for v in values] for d, values in doc["ternary_extended"].items()
        }
        self.binary_table = {
            int(d): [int(v) for v in values] for d, values in doc["binary"].items()
        }

    @classmethod
    def load(cls, path: Path = REFERENCE_FILE) -> "Reference":
        return cls(json.loads(path.read_text()))

    def ternary(self, d: int, n: int) -> int:
        if d in self.published and n <= self.published[d][0]:
            return 1 if n == 0 else self.published[d][1].get(n, 0)
        return self.extended[d][n]

    def binary(self, d: int, n: int) -> int:
        return self.binary_table[d][n]


@dataclass(frozen=True)
class Request:
    label: str
    kind: str  # "count", "series", "peel", "recompose" or "e_lambda"
    argv: Tuple[str, ...]  # CLI arguments; empty for a direct sl3 call
    args: tuple  # (d, n) or (d, max) for CLI requests; the call's input otherwise
    method: str
    expected: object


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, Reference], List[Request]]
    tail_pct: int  # op_ms.tail percentile: at least 10 samples lie beyond it
    min_passes: int  # passes a run makes at least, so that they do


def _series(d: int, n_max: int, method: str, ref: Reference) -> Request:
    argv = ("series", "--form", "ternary", "--d", str(d), "--max", str(n_max),
            "--method", method, "--format", "json")
    expected = [ref.ternary(d, n) for n in range(n_max + 1)]
    return Request(f"series {method} d={d} max={n_max}", "series", argv, (d, n_max), method, expected)


def _count(form: str, d: int, n: int, method: str, expected: int) -> Request:
    argv = ("count", "--form", form, "--d", str(d), "--n", str(n), "--method", method, "--json")
    kind = "peel" if method == "peel" else "count"
    return Request(f"count {form} {method} d={d} n={n}", kind, argv, (d, n), method, expected)


def tables(rng: random.Random, ref: Reference) -> List[Request]:
    """The published series tables and three larger degrees, by counting."""
    return [_series(d, n_max, "counting", ref) for d, n_max in TABLE_SIZES]


def points(rng: random.Random, ref: Reference) -> List[Request]:
    """Single counts: every nonzero published ternary entry, and every binary
    count with d <= 10, n <= 20 by both methods.  The binary counts are not
    sampled: a seeded sample moved op_ms.p50 by a tenth between seeds."""
    out = []
    for d, (_, nonzero) in sorted(ref.published.items()):
        for n in [0, *sorted(nonzero)]:
            out.append(_count("ternary", d, n, "counting", ref.ternary(d, n)))
    for method in ("omega", "qbinom"):
        for d in BINARY_D:
            for n in BINARY_N:
                out.append(_count("binary", d, n, method, ref.binary(d, n)))
    return out


def crosscheck(rng: random.Random, ref: Reference) -> List[Request]:
    """genfunc and pqbinom series, the cross-check routes."""
    return [
        _series(d, CROSSCHECK_MAX, method, ref)
        for d in CROSSCHECK_D
        for method in ("genfunc", "pqbinom")
    ]


def oracle(rng: random.Random, ref: Reference) -> List[Request]:
    """Peel counts, the e_lambda sweep, and seeded decompose-of-character
    recompositions.  The highest weights of each recomposition come from a
    fixed list and the seed picks their multiplicities, which do not change
    the peeling work, so every seed gives the same work."""
    out = [
        _count("ternary", d, n, "peel", ref.ternary(d, n))
        for d, n_max in PEEL_SIZES
        for n in range(n_max + 1)
    ]
    for m in range(LAMBDA_RANGE):
        expected = [1 if (m, k) == (0, 0) else 0 for k in range(LAMBDA_RANGE)]
        out.append(Request(f"e_lambda m={m}", "e_lambda", (), (m,), "", expected))
    fixed = random.Random(RECOMPOSE_SUPPORT_SEED)
    for i in range(RECOMPOSITIONS):
        multiset: Dict[Tuple[int, int], int] = {}
        for _ in range(fixed.randint(1, 4)):
            hw = (fixed.randint(0, 6), fixed.randint(0, 6))
            multiset[hw] = multiset.get(hw, 0) + rng.randint(1, 3)
        args = tuple(sorted(multiset.items()))
        out.append(Request(f"recompose #{i} {args}", "recompose", (), args, "", multiset))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", tables, tail_pct=75, min_passes=5),
        Workload("points", points, tail_pct=95, min_passes=1),
        Workload("crosscheck", crosscheck, tail_pct=75, min_passes=3),
        Workload("oracle", oracle, tail_pct=99, min_passes=8),
    )
}


def execute(req: Request, package) -> Tuple[int, object]:
    """Run one request; return (exit code, output).  Attributes are looked
    up at call time, so a traced run sees the tracer's wrappers."""
    if req.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = package.cli.main(list(req.argv))
        return code, out.getvalue()
    sl3 = package.sl3
    if req.kind == "e_lambda":
        (m,) = req.args
        return 0, [sl3.e_lambda((m, k)) for k in range(LAMBDA_RANGE)]
    diagram: Dict[Tuple[int, int], int] = {}
    for hw, g in req.args:
        for w, mult in sl3.character(hw).items():
            diagram[w] = diagram.get(w, 0) + g * mult
    return 0, sl3.decompose(diagram)


def check(req: Request, code: Optional[int], output: object) -> Optional[str]:
    """None if the request succeeded with the exact expected value, else why not."""
    if code != 0:
        return f"exit code {code}"
    if not req.argv:
        return None if output == req.expected else f"got {output!r}"
    try:
        obj = json.loads(output)
        if req.kind == "series":
            rows = obj["coefficients"]
            if not all(isinstance(r["value"], str) for r in rows):
                return "series values are not decimal strings"
            got = [(r["n"], int(r["value"])) for r in rows]
            want = list(enumerate(req.expected))
        else:
            if not isinstance(obj["value"], str):
                return "count value is not a decimal string"
            got = (obj["d"], obj["n"], obj["method"], int(obj["value"]))
            want = (*req.args, req.method, req.expected)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output {output!r}: {exc}"
    return None if got == want else f"got {got}, expected {want}"
