"""The routes stay independent: what each one reaches in the package.

``forminv verify`` means something only while the routes that it
compares share no code that could move two of them together.  This test
reads the source with ``ast``, with no import of the package, and walks
every name each route's table entry reaches among the top-level
definitions (functions, classes and assigned names) of
``src/forminv/*.py``: the names in a definition's body, its annotations
and its defaults, each resolved in its own module or through a
``from .module import name`` or a ``module.name`` attribute of a
``from . import module``.  A local that shadows a top-level name counts
as a reach, so the walk errs towards sharing.

Each pairwise overlap within a form is pinned to ``SHARED``.  A route
that gains a shared helper, or loses one, fails here; the list is
changed only with the helper's own check, a mutant that a test
comparing no two routes kills (``scripts/mutants.py``).
"""

import ast
from itertools import combinations
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forminv"

TERNARY = {
    "counting": ("counts", "counting_reader"),
    "genfunc": ("counts", "genfunc_reader"),
    "pqbinom": ("counts", "pqbinom_reader"),
    "peel": ("counts", "nu_ternary_peel"),
}
BINARY = {
    "omega": ("weights", "omega_reader"),
    "qbinom": ("qbinom", "gaussian_binomial_low"),
}

# the small checks every route makes on its sizes
CHECKS = {"monomial_count", "num_variables", "_check_dn"}
# the cells each ternary reader is built for, and the reader's type
READS = CHECKS | {"Reads", "_suffix_max", "Terms", "Reader"}
SHARED = {
    frozenset({"counting", "genfunc"}): READS,
    frozenset({"counting", "pqbinom"}): READS,
    frozenset({"genfunc", "pqbinom"}): READS | {"_box_masks"},
    frozenset({"counting", "peel"}): CHECKS | {"_grid", "_packed_layers", "CountGrid"},
    frozenset({"genfunc", "peel"}): CHECKS,
    frozenset({"pqbinom", "peel"}): CHECKS,
    frozenset({"omega", "qbinom"}): {"_check_dn"},
}


def _modules():
    """module -> (its top-level definitions, name -> (module, name) of
    each ``from .module import name``, its ``from . import`` modules)."""
    modules = {}
    for path in sorted(PACKAGE.glob("*.py")):
        defs, imported, aliases = {}, {}, set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                # a tuple target defines each of its names
                for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    defs[name.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases.add(alias.asname or alias.name)
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        modules[path.stem] = (defs, imported, aliases)
    return modules


MODULES = _modules()


def _refs(module, node):
    """The (module, name) of every top-level definition that ``node``
    names directly."""
    defs, imported, aliases = MODULES[module]
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in defs:
                yield module, sub.id
            elif sub.id in imported:
                yield imported[sub.id]
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in aliases
            and sub.attr in MODULES[sub.value.id][0]
        ):
            yield sub.value.id, sub.attr


def reach(entry):
    """Every (module, name) that ``entry`` reaches, itself included."""
    seen, todo = set(), [entry]
    while todo:
        module, name = todo.pop()
        if (module, name) not in seen:
            seen.add((module, name))
            todo.extend(_refs(module, MODULES[module][0][name]))
    return seen


PAIRS = [
    (table[a], table[b], frozenset({a, b}))
    for table in (TERNARY, BINARY)
    for a, b in combinations(table, 2)
]


@pytest.mark.parametrize(
    "first, second, pair", PAIRS, ids=["-".join(sorted(pair)) for *_, pair in PAIRS]
)
def test_routes_share_only_the_listed_helpers(first, second, pair):
    assert {name for _, name in reach(first) & reach(second)} == SHARED[pair]


def test_every_entry_is_its_route_table_entry():
    # the entries walked here are the ones the route tables hold
    tables = {}
    for node in MODULES["counts"][0].values():
        if isinstance(node, ast.AnnAssign) and node.target.id.endswith("_METHODS"):
            tables[node.target.id] = {
                key.value: next(_refs("counts", value))
                for key, value in zip(node.value.keys, node.value.values)
            }
    assert tables == {"BINARY_METHODS": BINARY, "TERNARY_METHODS": TERNARY}


def test_peel_never_reads_the_five_point_operator():
    # peel decomposes the weight table; the functional is the other
    # routes' operator, so reading it would tie peel to them
    assert not reach(TERNARY["peel"]) & {("sl3", "FIVE_POINT"), ("counts", "OPERATOR_TERMS")}

