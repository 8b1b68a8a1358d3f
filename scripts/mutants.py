#!/usr/bin/env python3
"""Check that the test suite kills every mutant in ``MUTANTS``.

Each mutant replaces one exact text, which must occur exactly once, in
one file of the package with a new text, and names the tests that must
then fail.  For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the mutant there
and runs pytest on the named tests only.  The repository itself is never
written.  The named tests first run once on an unmutated copy, where
they must all pass, so that a test broken for another reason kills no
mutant.

A mutant is killed when every test it names fails; a parametrized test
fails when any of its cases does.  The script exits 1 when a mutant
survives, when its old text is missing or not unique (a refactor must
update the entry, not skip it), when pytest cannot run a named test, or
when the unmutated copy fails one; otherwise it exits 0.

Run from anywhere, with pytest and hypothesis installed:

    python scripts/mutants.py

Some helpers are shared between routes (``_packed_layers`` and
``_grid`` by counting and peel, ``_box_masks`` by genfunc and pqbinom,
``pq_binomial_table`` by binary qbinom and pqbinom, ``Reads`` by every
ternary reader), so a mutant there can move two routes together, and a
test that compares those routes cannot see it.
Each such mutant names tests that check a route against pinned values
or its own reference instead.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, NamedTuple, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
PYTEST_TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: Sequence[str]  # pytest node ids, without parameters


W, S = "src/forminv/weights.py", "src/forminv/sl3.py"
C, Q = "src/forminv/counts.py", "src/forminv/qbinom.py"
CLI = "src/forminv/cli.py"
WT = "tests/test_weights.py::"
ST = "tests/test_sl3.py::"
CT = "tests/test_counts.py::"
QT = "tests/test_qbinom.py::"
CLIT = "tests/test_cli.py::"

MUTANTS = (
    # the packed DP kernel, shared by counting and peel
    Mutant(
        "_packed_layers shifts one bit too far",
        W,
        "prev = layers[c] = (layers[c] + (prev << shift)) & masks[c]",
        "prev = layers[c] = (layers[c] + (prev << (shift + 1))) & masks[c]",
        [WT + "TestPackedLayers::test_padding_edge", WT + "TestCTernary::test_against_enumeration",
         WT + "TestWeightTable::test_dominant_part_against_enumeration"],
    ),
    Mutant(
        "_packed_layers moves one bit short into a raised layer",
        W,
        "move = shift - drop\n",
        "move = shift - drop - 1\n",
        [WT + "TestWindow::test_window_cells_match_reference"],
    ),
    # the one loop that builds every layer mask: without a rebuild a
    # falling layer keeps its rows past its top, and every count stays
    # exact, so only the layer's bit length sees it
    Mutant(
        "_grid never rebuilds the mask of a falling layer",
        W,
        "if h != rows[c]:",
        "if h > rows[c]:",
        [WT + "TestWindow::test_layers_stay_inside_their_window"],
    ),
    # the window contract, checked once in solution_count_grid
    Mutant(
        "solution_count_grid accepts lows of another length",
        W,
        "    if len(lows) != n_max + 1:\n        raise ValueError(\"lows must hold n_max + 1 layers\")\n",
        "",
        [WT + "TestValidation::test_grid_rejects_lows_of_another_length"],
    ),
    Mutant(
        "solution_count_grid accepts a row of tops of another length",
        W,
        "len(tops) != d + 1 or set(map(len, tops)) != {n_max + 1}:",
        "len(tops) != d + 1:",
        [WT + "TestValidation::test_grid_rejects_tops_of_another_shape"],
    ),
    Mutant(
        "solution_count_grid accepts lows that start above 0",
        W,
        "if lows[0] != 0 or not",
        "if not",
        [WT + "TestValidation::test_grid_rejects_lows_that_start_above_0"],
    ),
    Mutant(
        "solution_count_grid accepts falling lows",
        W,
        " or not all(map(le, lows, lows[1:])):",
        ":",
        [WT + "TestValidation::test_grid_rejects_falling_lows"],
    ),
    Mutant(
        "solution_count_grid accepts tops that grow",
        W,
        "all(map(ge, top, cut))",
        "True",
        [WT + "TestValidation::test_grid_rejects_tops_that_grow"],
    ),
    Mutant(
        "CountGrid.cell reads a negative layer from the end",
        W,
        "if not (0 <= c < len(lows) and",
        "if not (c < len(lows) and",
        [WT + "TestValidation::test_cell_rejects_a_layer_outside_the_grid"],
    ),
    Mutant(
        "_grid's row mask keeps one padding slot",
        W,
        "full, filled = (1 << ((w2cap + 1) * slot)) - 1, 1",
        "full, filled = (1 << ((w2cap + 2) * slot)) - 1, 1",
        [WT + "TestPackedLayers::test_padding_edge",
         WT + "TestWeightTable::test_dominant_part_against_enumeration"],
    ),
    # the slot rule (weights module docstring), one mutant per packed
    # route.  Each is killed where the bound is 1, as at order 0: a 1-bit
    # slot, which the mutant leaves 0 bits wide.  The bounds are loose by
    # many bits, so a slot one bit narrower does not carry at the tested
    # sizes.
    Mutant(
        "_grid's slot one bit narrower than its bound",
        W,
        "slot = monomial_count(d, n).bit_length()",
        "slot = monomial_count(d, n).bit_length() - 1",
        [WT + "TestPackedLayers::test_cells_match_reference"],
    ),
    Mutant(
        "omega_reader's slot one bit narrower than its bound",
        W,
        "slot = comb(order + d, d).bit_length()",
        "slot = comb(order + d, d).bit_length() - 1",
        [WT + "TestOmegaBinary::test_against_reference_dp"],
    ),
    # gaussian_binomial_low's slot is also checked by pq_binomial_table's
    # carry guard, so this one is killed by the guard's ValueError
    Mutant(
        "gaussian_binomial_low's slot one bit narrower than its bound",
        Q,
        "slot = comb(d + order, order).bit_length()",
        "slot = comb(d + order, order).bit_length() - 1",
        [QT + "TestGaussianBinomialLow::test_is_low_part_of_gaussian_binomial"],
    ),
    Mutant(
        "_genfunc_expansion's slot one bit narrower than its bound",
        C,
        "slot = weights.monomial_count(d, order).bit_length()\n    masks",
        "slot = weights.monomial_count(d, order).bit_length() - 1\n    masks",
        [CT + "TestNuTernary::test_genfunc"],
    ),
    Mutant(
        "pqbinom_reader's slot one bit narrower than its bound",
        C,
        "slot = weights.monomial_count(d, order).bit_length()\n    cell",
        "slot = weights.monomial_count(d, order).bit_length() - 1\n    cell",
        [CT + "TestNuTernary::test_pqbinom"],
    ),
    # the one q-Pascal recurrence, shared by binary qbinom (row d, at
    # p = 1) and pqbinom (every row), so each is killed by the table's own
    # tests against the oracles
    Mutant(
        "the q-Pascal shift one slot short",
        Q,
        "(k * slot)",
        "((k - 1) * slot)",
        [QT + "TestGaussianBinomialLow::test_is_low_part_of_gaussian_binomial",
         QT + "TestPqBinomialTable::test_entries_are_clipped_pq_binomials"],
    ),
    Mutant(
        "every row of the pq-binomial table aliases one list",
        Q,
        "[row[:] for row in",
        "[row for row in",
        [QT + "TestPqBinomialTable::test_entries_are_clipped_pq_binomials"],
    ),
    Mutant(
        "each pq-binomial row cut one entry short",
        Q,
        "del row[top // m + 1 :]",
        "del row[top // m :]",
        [QT + "TestGaussianBinomialLow::test_is_low_part_of_gaussian_binomial",
         QT + "TestPqBinomialTable::test_entries_are_clipped_pq_binomials"],
    ),
    # the same reads from the whole table: only the build's memory sees it
    Mutant(
        "binary qbinom builds the whole table to read row d",
        Q,
        "for row in _pq_binomial_rows(d, order, [mask] * (d * order + 1), slot):\n        pass\n",
        "row = pq_binomial_table(d, order, [mask] * (d * order + 1), slot)[d]\n",
        [QT + "TestGaussianBinomialLow::test_build_holds_one_row"],
    ),
    # the five-point functional, shared by e_lambda and every ternary
    # reader route (through OPERATOR_TERMS)
    Mutant(
        "FIVE_POINT's (1, 1) coefficient with its sign flipped",
        S,
        "(1, 1): -2",
        "(1, 1): 2",
        [ST + "TestELambda::test_adjoint",
         "tests/test_counts.py::test_operator_terms_are_the_papers_operator"],
    ),
    # the Weyl alternation, the oracle of character and of the sweep
    Mutant(
        "_alternation exits early only when both coordinates are negative",
        S,
        "n1 < 0 or n2 < 0:",
        "n1 < 0 and n2 < 0:",
        [ST + "TestAgainstReference::test_weight_multiplicity_box"],
    ),
    Mutant(
        "_alternation exits early at n2 = 0",
        S,
        "n1 < 0 or n2 < 0:",
        "n1 < 0 or n2 <= 0:",
        [ST + "TestWeightMultiplicity::test_standard_highest_weight",
         ST + "TestCharacter::test_trivial"],
    ),
    Mutant(
        "_alternation reads K off the root lattice",
        S,
        "if n1 % 3 or n1 < 0",
        "if n1 < 0",
        [ST + "TestWeightMultiplicity::test_outside_diagram",
         ST + "TestAgainstReference::test_weight_multiplicity_box"],
    ),
    # peel's dominant build
    Mutant(
        "the dominant w1 cap one too small",
        W,
        "(wmax // 2, wmax // 3) if dominant",
        "(wmax // 2 - 1, wmax // 3) if dominant",
        [WT + "TestWeightTable::test_dominant_part_against_enumeration",
         WT + "TestWeightTable::test_weyl_invariant_and_dominant_part_built_alone"],
    ),
    Mutant(
        "the dominant w2 cap one too small",
        W,
        "(wmax // 2, wmax // 3) if dominant",
        "(wmax // 2, wmax // 3 - 1) if dominant",
        [WT + "TestWeightTable::test_dominant_part_against_enumeration",
         WT + "TestWeightTable::test_weyl_invariant_and_dominant_part_built_alone"],
    ),
    Mutant(
        "the dominant row bound w2 <= w1 one too small",
        W,
        "min(w1, wmax - 2 * w1)",
        "min(w1 - 1, wmax - 2 * w1)",
        [WT + "TestWeightTable::test_dominant_part_against_enumeration",
         WT + "TestWeightTable::test_weyl_invariant_and_dominant_part_built_alone"],
    ),
    Mutant(
        "the dominant row bound w2 <= dn - 2 w1 one too small",
        W,
        "min(w1, wmax - 2 * w1)",
        "min(w1, wmax - 2 * w1 - 1)",
        [WT + "TestWeightTable::test_dominant_part_against_enumeration",
         WT + "TestWeightTable::test_weyl_invariant_and_dominant_part_built_alone"],
    ),
    # character's sweep of the root-lattice coset: a step of 1 evaluates
    # the whole triangle and returns the same diagram, so only the call
    # count sees it
    Mutant(
        "character evaluates the whole triangle",
        S,
        "span - i + 1, 3):",
        "span - i + 1, 1):",
        [ST + "TestCharacter::test_evaluates_only_the_root_lattice_coset"],
    ),
    Mutant(
        "character sweeps the wrong coset",
        S,
        "(i - lam[0] + lam[1]) % 3",
        "(i - lam[0] + lam[1] + 1) % 3",
        [ST + "TestAgainstReference::test_character"],
    ),
    # e_lambda's root-lattice test: without it every multiplicity read off
    # the lattice is 0, so only the call count sees it
    Mutant(
        "e_lambda evaluates lam off the root lattice",
        S,
        "    if (2 * lam[0] + lam[1]) % 3:\n        return 0\n",
        "",
        [ST + "TestELambda::test_reads_multiplicities_only_on_the_root_lattice"],
    ),
    Mutant(
        "e_lambda's root-lattice test inverted",
        S,
        "if (2 * lam[0] + lam[1]) % 3:",
        "if not (2 * lam[0] + lam[1]) % 3:",
        [ST + "TestELambda::test_trivial"],
    ),
    Mutant(
        "e_lambda checks lam only on the root lattice",
        S,
        "    _check_dominant(lam)\n    if (2 * lam[0]",
        "    if (2 * lam[0]",
        [ST + "TestMalformedInput::test_e_lambda_rejects_negative_highest_weight",
         ST + "TestMalformedInput::test_rejects_weight_that_is_not_a_pair_of_ints"],
    ),
    # decompose's Weyl invariance, checked once per dominant orbit
    Mutant(
        "the orbit check drops the longest element's image",
        S,
        " == get(s0):",
        ":",
        [ST + "TestDecompose::test_one_non_dominant_image_changed"],
    ),
    Mutant(
        "a wall weight's orbit counted as 6",
        S,
        "6 if a and b else 3 if a or b else 1",
        "6 if a or b else 1",
        [ST + "TestDecompose::test_irreducible_input"],
    ),
    # decompose on a dominant diagram, and its total
    Mutant(
        "decompose takes a total that is not an int",
        S,
        "type(total) is not int or ",
        "",
        [ST + "TestDecompose::test_rejects_a_total_that_is_not_a_nonnegative_int"],
    ),
    Mutant(
        "decompose takes a negative total",
        S,
        " or total < 0)",
        ")",
        [ST + "TestDecompose::test_rejects_a_total_that_is_not_a_nonnegative_int"],
    ),
    Mutant(
        "the total bookkeeping misses a total that is too large",
        S,
        ") != total:",
        ") > total:",
        [ST + "TestDecompose::test_dominant_diagram_with_total"],
    ),
    Mutant(
        "a dominant diagram keeps a weight with one negative coordinate",
        S,
        "total is not None and (a < 0 or b < 0):",
        "total is not None and (a < 0 and b < 0):",
        [ST + "TestDecompose::test_dominant_diagram_with_total"],
    ),
    # decompose's sweep: its order and its ray starts
    Mutant(
        "the sweep visits the records ascending",
        S,
        "dominant.sort(reverse=True)",
        "dominant.sort()",
        [ST + "TestDecompose::test_irreducible_input"],
    ),
    Mutant(
        "the second top ray starts one level too high",
        S,
        "2 * m1 + m2, m1 + m2 - 1, 1)",
        "2 * m1 + m2, m1 + m2, 1)",
        [ST + "TestDecompose::test_ray_starts_are_the_hexagon_rule_weights",
         ST + "TestDecompose::test_irreducible_input"],
    ),
    # decompose's sweep checks
    Mutant(
        "the sweep skips a (1, 1) line's missing step",
        S,
        "if value and last != i + 1:",
        "if False:",
        [ST + "TestDecompose::test_rejects_name_a_weight_not_the_bookkeeping"],
    ),
    Mutant(
        "the sweep skips a missing level on a ray along -alpha1",
        S,
        "            if ray[0] != level:\n                raise _lacks(_ray_weight(0,",
        "            if False:\n                raise _lacks(_ray_weight(0,",
        [ST + "TestDecompose::test_gap_mid_sweep_names_the_missing_weight"],
    ),
    # the ternary readers: _box_masks is shared by genfunc and pqbinom,
    # Reads by every reader
    Mutant(
        "genfunc folds the factors in ascending degree",
        C,
        "for step in range(d, -1, -1):",
        "for step in range(d + 1):",
        [CT + "TestNuTernary::test_genfunc"],
    ),
    Mutant(
        "_box_masks drops the top slot of each degree",
        Q,
        "width = min(bmax, deg) - first + 1",
        "width = min(bmax, deg) - first",
        [CT + "TestNuTernary::test_genfunc", CT + "TestNuTernary::test_pqbinom",
         CT + "TestPackedGenfunc::test_expansion_is_restricted_inverse_product",
         QT + "TestPqBinomialTable::test_entries_are_clipped_pq_binomials"],
    ),
    # each pqbinom half is floored against the other half's factors; lo
    # descends to G_0, so its first factor sets hi's last floor
    Mutant(
        "pqbinom's hi half floored as if lo lacked its largest factor",
        C,
        "_pq_half(rows, his, los,",
        "_pq_half(rows, his, los[1:],",
        [CT + "TestNuTernary::test_pqbinom", CT + "TestReads::test_reader_is_exact_at_every_cell_read"],
    ),
    Mutant(
        "pqbinom's lo half floored as if hi lacked G_d",
        C,
        "_pq_half(rows, los, his,",
        "_pq_half(rows, los, his[1:],",
        [CT + "TestNuTernary::test_pqbinom", CT + "TestReads::test_reader_is_exact_at_every_cell_read"],
    ),
    # each pqbinom half starts from its first factor's own pieces and
    # takes G_0 as a running sum over j: killed against the brute-force
    # clipped product, the table's own ints and pinned counts.  A seed
    # piece below its floor stays below every later floor, so only a
    # one-factor half shows it
    Mutant(
        "pqbinom's seed keeps pieces below its floor",
        C,
        "{m * j: row[j]} if j < len(row) and m * j >= low else {}",
        "{m * j: row[j]} if j < len(row) else {}",
        [CT + "TestPackedPqbinom::test_one_factor_half_holds_the_tables_ints"],
    ),
    Mutant(
        "pqbinom's running sum over G_0 restarts at each j",
        C,
        "acc = {deg: x for deg, x in acc.items() if deg >= low}",
        "acc = {}",
        [CT + "TestNuTernary::test_pqbinom",
         CT + "TestPackedPqbinom::test_reader_halves_are_clipped_series_products"],
    ),
    Mutant(
        "pqbinom's running sum over G_0 keeps pieces below lows[j]",
        C,
        "acc = {deg: x for deg, x in acc.items() if deg >= low}",
        "acc = dict(acc)",
        [CT + "TestPackedPqbinom::test_reader_halves_are_clipped_series_products"],
    ),
    Mutant(
        "pqbinom's empty half lacks its t^0 piece",
        C,
        "prod: List[Dict[int, int]] = [{0: 1}] + ",
        "prod: List[Dict[int, int]] = [{}] + ",
        [CT + "TestNuTernary::test_pqbinom",
         CT + "TestPackedPqbinom::test_reader_halves_are_clipped_series_products"],
    ),
    # pqbinom's combine of its two halves, each killed against monomial
    # counts and against a plain double loop over the pieces
    Mutant(
        "_convolve skips its last split",
        C,
        "for i in range(n + 1):",
        "for i in range(n):",
        [CT + "TestReads::test_reader_is_exact_at_every_cell_read",
         CT + "TestPackedPqbinom::test_convolve_is_the_sum_over_every_pair_of_pieces"],
    ),
    Mutant(
        "_convolve overwrites a sum instead of adding to it",
        C,
        "sums[deg] += x * y",
        "sums[deg] = x * y",
        [CT + "TestReads::test_reader_is_exact_at_every_cell_read",
         CT + "TestPackedPqbinom::test_convolve_is_the_sum_over_every_pair_of_pieces"],
    ),
    Mutant(
        "Reads.box one too small in a",
        C,
        "return max([a for (_, a, _), _ in cells]), ",
        "return max([a for (_, a, _), _ in cells]) - 1, ",
        [CT + "TestReads::test_cells_are_the_operator_at_each_degree",
         CT + "TestPackedGenfunc::test_expansion_is_restricted_inverse_product",
         CT + "TestNuTernary::test_pqbinom"],
    ),
    Mutant(
        "Reads.floors one too high",
        C,
        "return [-x for x in _suffix_max(self._sunk_sums, -rest)]",
        "return [-x + 1 for x in _suffix_max(self._sunk_sums, -rest)]",
        [CT + "TestClippedExpansions::test_floors_are_the_suffix_minimum",
         CT + "TestNuTernary::test_genfunc", CT + "TestNuTernary::test_pqbinom"],
    ),
    # the parser's one terminal query: a subparser built with argparse's
    # own formatter prints the same text, so only the query count sees it
    Mutant(
        "the series subparser asks the terminal once per argument",
        CLI,
        '"series", help="print a Poincare series table", formatter_class=formatter',
        '"series", help="print a Poincare series table"',
        [CLIT + "TestParserBuild::test_asks_the_terminal_once"],
    ),
)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_tests(where: Path, tests: Sequence[str]) -> Set[str]:
    """The named tests that fail in the tree at ``where``.  Raises
    RuntimeError when pytest cannot run them (a usage or collection
    error, or no test collected)."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True, timeout=PYTEST_TIMEOUT_S,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith("FAILED "):
            failed.add(line.split()[1].split("[")[0])
    return failed


def main() -> int:
    faults: List[str] = []
    named = sorted({test for m in MUTANTS for test in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        broken = failed_tests(Path(tmp), named)
    if broken:
        print(f"the unmutated tree fails {len(broken)} named tests: {', '.join(sorted(broken))}")
        return 1
    start = time.perf_counter()
    for m in MUTANTS:
        source = (ROOT / m.path).read_text()
        found = source.count(m.old)
        if found != 1:
            faults.append(m.name)
            print(f"MISSING   {m.name}: its old text occurs {found} times in {m.path}")
            continue
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            copy_tree(tree)
            (tree / m.path).write_text(source.replace(m.old, m.new))
            try:
                failed = failed_tests(tree, m.tests)
            except (RuntimeError, subprocess.TimeoutExpired) as err:
                faults.append(m.name)
                print(f"ERROR     {m.name}: {err}")
                continue
        passed = [t for t in m.tests if t not in failed]
        took = time.perf_counter() - t0
        if passed:
            faults.append(m.name)
            print(f"SURVIVED  {m.name}: {', '.join(passed)} passed ({took:.1f} s)")
        else:
            print(f"killed    {m.name} ({len(m.tests)} tests, {took:.1f} s)")
    total = time.perf_counter() - start
    print(f"{len(MUTANTS) - len(faults)} of {len(MUTANTS)} mutants killed in {total:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
