#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the exact answers the benchmark checks.

Run from the repository root:  python3 perfbench/make_reference.py

* The five published ternary tables (d = 3..7) are copied from
  tests/test_acceptance.py, where they are pinned.
* Every extended ternary value (sizes outside the published tables) is
  computed by two independent routes, counting and genfunc, and kept only
  if they agree; where a size overlaps a published table, both routes must
  also agree with it.
* Every binary value (d <= 10, n <= 20) is computed by omega and by
  qbinom, and kept only if they agree.

Counts are stored as decimal strings.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import forminv  # noqa: E402
from forminv.counts import gamma_binary, gamma_binary_qbinom, poincare_series  # noqa: E402
from test_acceptance import SERIES_TABLES  # noqa: E402

# (d, n_max) of ternary series needed beyond the published tables.
EXTENDED = {1: 15, 2: 15, 6: 15, 8: 24, 9: 24, 10: 21}
BINARY_D_MAX = 10
BINARY_N_MAX = 20


def published_value(d: int, n: int) -> int:
    n_max, nonzero = SERIES_TABLES[d]
    if n > n_max:
        raise KeyError((d, n))
    return 1 if n == 0 else nonzero.get(n, 0)


def extended_series(d: int, n_max: int) -> list:
    counting = poincare_series("ternary", d, n_max, method="counting")
    genfunc = poincare_series("ternary", d, n_max, method="genfunc")
    if counting != genfunc:
        raise SystemExit(f"counting and genfunc disagree at d={d}")
    if d in SERIES_TABLES:
        for n, v in counting:
            if n <= SERIES_TABLES[d][0] and v != published_value(d, n):
                raise SystemExit(f"d={d}, n={n}: {v} differs from the published table")
    return [str(v) for _, v in counting]


def main() -> int:
    start = time.perf_counter()
    extended = {str(d): extended_series(d, n_max) for d, n_max in EXTENDED.items()}
    binary = {}
    for d in range(1, BINARY_D_MAX + 1):
        row = []
        for n in range(BINARY_N_MAX + 1):
            a, b = gamma_binary(d, n), gamma_binary_qbinom(d, n)
            if a != b:
                raise SystemExit(f"omega and qbinom disagree at d={d}, n={n}")
            row.append(str(a))
        binary[str(d)] = row
    elapsed = time.perf_counter() - start
    doc = {
        "provenance": {
            "published": "the five ternary tables pinned in tests/test_acceptance.py "
            "(n = 0 is the constant invariant, 1; degrees not listed are 0)",
            "ternary_extended": "counting and genfunc series agreed on every value, "
            "and agreed with the published tables where they overlap",
            "binary": "omega and qbinom agreed on every value",
            "generator": "perfbench/make_reference.py",
            "forminv_version": forminv.__version__,
            "python": platform.python_version(),
            "generated_on": time.strftime("%Y-%m-%d", time.gmtime()),
            "generation_seconds": round(elapsed, 1),
        },
        "ternary_published": {
            str(d): {
                "n_max": n_max,
                "nonzero": {str(n): str(v) for n, v in sorted(nonzero.items())},
            }
            for d, (n_max, nonzero) in SERIES_TABLES.items()
        },
        "ternary_extended": extended,
        "binary": binary,
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name} in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
