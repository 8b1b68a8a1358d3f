"""Span tracer that wraps forminv's public functions from outside the package.

While a :class:`Tracer` is installed, every public function of the layer
modules (``cli``, ``counts``, ``weights``, ``poly``, ``qbinom``, ``sl3``),
plus ``LaurentPoly.divexact`` and ``LaurentPoly.__mul__``, records a span
(name, start, end, parent) in memory.  A span's self time is its duration
minus the time covered by its child spans and by the benchmark's speed
samples taken inside it.  ``sl3.weight_multiplicity`` is
only counted: it is called about 10^5 times per oracle pass, and its time
stays in the calling sl3 span.

Callers reach a function through several bindings (``from … import`` names,
the method dictionaries in ``counts``), so every binding that refers to a
wrapped function is replaced, and restored on :meth:`Tracer.uninstall`.

The tracer also keeps work counters derived from call arguments and results
("computed": they follow from sizes, they are not timed):

* ``weights.cells`` -- cells of every counting grid built,
  variables * (n+1) * (w1cap+1) * (w2cap+1);
* ``weights.cells_read`` -- of those, cells the caller reads;
* ``poly.series_mul.term_products`` -- sum over i, j of |x_i| * |y_{j-i}|;
* ``poly.terms_read`` / ``poly.terms_final`` -- coefficients the
  extraction operator reads, and terms in the final series, of every
  genfunc or pqbinom series request;
* ``counts.peel_estimate`` / ``counts.peel_measured`` -- the peel route's
  ``peel_work_estimate`` and its measured work (weight-table cells plus
  weight multiplicities evaluated while peeling).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from types import ModuleType
from typing import Callable, Dict, List, Tuple

LAYERS = ("cli", "counts", "weights", "poly", "qbinom", "sl3")

# Bindings that callers are known to use; installing fails if one of them
# is missing or was not replaced, rather than reporting zero for it.
REQUIRED = (
    "weights.solution_count_grid",
    "weights.c_ternary",
    "weights.omega_binary",
    "weights.weight_table",
    "poly.series_mul",
    "poly.expand_inverse_product",
    "qbinom.pq_binomial",
    "qbinom.gaussian_binomial",
    "sl3.decompose",
    "sl3.character",
    "sl3.e_lambda",
    "sl3.weight_multiplicity",
    "counts.poincare_series",
    "counts.peel_work_estimate",
    "counts.nu_ternary_peel",
    "cli.main",
)
REQUIRED_BINDINGS = (
    ("counts", "c_ternary", "weights.c_ternary"),
    ("counts", "weight_table", "weights.weight_table"),
    ("counts", "series_mul", "poly.series_mul"),
    ("counts", "expand_inverse_product", "poly.expand_inverse_product"),
    ("counts", "pq_binomial", "qbinom.pq_binomial"),
    ("counts", "gaussian_binomial", "qbinom.gaussian_binomial"),
    ("counts", "decompose", "sl3.decompose"),
    ("cli", "poincare_series", "counts.poincare_series"),
)
# Functions called outside requests, by the benchmark itself.
UNTRACED = {"counts.clear_caches", "weights.clear_caches", "cli.run"}
COUNTED_ONLY = {"sl3.weight_multiplicity"}


class TracerError(RuntimeError):
    """The package does not have a function or binding the tracer needs."""


def _num_variables(d: int) -> int:
    return (d + 1) * (d + 2) // 2


class Tracer:
    """Spans and work counters of one traced pass."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.spans: List[list] = []  # [name, start, end, parent index, excluded seconds]
        self.stack: List[int] = []
        self.counters: Counter = Counter()
        self.in_peel = False  # inside a peel request
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def record(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Return a wrapper of ``fn`` that records a span named ``name``.

        ``hook(args, kwargs, result)`` runs after the span closes and
        updates computed counters.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        _copy_identity(wrapper, fn)
        return wrapper

    def start_request(self, req) -> list:
        """Open the span of one benchmark request (a ``workloads.Request``)."""
        self.in_peel = req.kind == "peel"
        span = ["request", time.perf_counter(), 0.0, -1, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def finish_request(self, span: list, req, caches_cleared: bool) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()
        c = self.counters
        c["counts.clear_caches.calls"] += caches_cleared
        final_terms = c.pop("poly.last_series_terms", 0)
        if req.kind == "series" and req.method in ("genfunc", "pqbinom"):
            d, n_max = req.args
            # the extraction operator reads 5 coefficients per degree with 3 | d*n
            c["poly.terms_read"] += 5 * sum(1 for n in range(n_max + 1) if d * n % 3 == 0)
            c["poly.terms_final"] += final_terms

    def exclude(self, seconds: float) -> None:
        """Take time the benchmark spent inside the innermost open span
        (a speed sample) out of that span's self time."""
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds

    def self_times(self) -> Dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _, excluded), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c - excluded)
        return out

    def calls(self) -> Counter:
        """``<span name>.calls`` for every span name, plus the work counters."""
        out = Counter(f"{span[0]}.calls" for span in self.spans)
        out.update(self.counters)
        return out

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        mods = {layer: getattr(self.package, layer) for layer in LAYERS}
        wrapped: Dict[int, Callable] = {}  # id(original) -> wrapper
        names = set()
        hooks = self._hooks()
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                qual = f"{layer}.{attr}"
                if attr.startswith("_") or qual in UNTRACED or not _defined_in(fn, mod):
                    continue
                if qual in COUNTED_ONLY:
                    wrapper = self._count_only(qual, fn)
                else:
                    wrapper = self.record(qual, fn, hooks.get(qual))
                wrapped[id(fn)] = wrapper
                names.add(qual)
        missing = [q for q in REQUIRED if q not in names]
        if missing:
            raise TracerError(f"functions to trace are missing: {', '.join(missing)}")

        # every binding in the package that refers to a wrapped function
        for mod in (self.package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._patch(mod, attr, wrapped[id(value)])
        wrappers = {id(w) for w in wrapped.values()}
        for table_name in ("TERNARY_METHODS", "BINARY_METHODS"):
            table = getattr(mods["counts"], table_name)
            for key, value in list(table.items()):
                if id(value) not in wrapped:
                    raise TracerError(f"counts.{table_name}[{key!r}] is not a traced function")
                self._patch_item(table, key, wrapped[id(value)])
        for module, attr, target in REQUIRED_BINDINGS:
            if id(getattr(mods[module], attr, None)) not in wrappers:
                raise TracerError(f"binding {module}.{attr} of {target} was not traced")

        poly_cls = mods["poly"].LaurentPoly
        for method, name in (("divexact", "poly.divexact"), ("__mul__", "poly.mul")):
            fn = poly_cls.__dict__.get(method)
            if fn is None:
                raise TracerError(f"LaurentPoly.{method} is missing")
            self._patch(poly_cls, method, self.record(name, fn))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, obj: object, attr: str, value: object) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _patch_item(self, table: dict, key: str, value: object) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = value

    def _count_only(self, name: str, fn: Callable) -> Callable:
        counters, spans, stack = self.counters, self.spans, self.stack
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            counters[calls_key] += 1
            if self.in_peel and stack and spans[stack[-1]][0] == "sl3.decompose":
                counters["counts.peel_measured"] += 1
            return fn(*args, **kwargs)

        _copy_identity(wrapper, fn)
        return wrapper

    # -- computed counters ------------------------------------------------

    def _hooks(self) -> Dict[str, Callable]:
        c = self.counters

        def grid(args, kwargs, result):
            d, n_max = args[0], args[1]
            cap = d * n_max // 3 + 1
            c["weights.cells"] += _num_variables(d) * (n_max + 1) * (cap + 1) ** 2
            c["weights.cells_read"] += 5 * sum(1 for n in range(n_max + 1) if d * n % 3 == 0)

        def point(args, kwargs, result):
            d, n, i, j = args[:4]
            num1, num2 = d * n - (i - j), d * n - (i + 2 * j)
            if num1 % 3 or num2 % 3:
                return
            w1, w2 = num1 // 3, num2 // 3
            if 0 <= w1 <= d * n and 0 <= w2 <= d * n:
                c["weights.cells"] += _num_variables(d) * (n + 1) * (w1 + 1) * (w2 + 1)
                c["weights.cells_read"] += 1

        def table(args, kwargs, result):
            d, n = args[0], args[1]
            side = (d * n + 1) ** 2
            cells = _num_variables(d) * (n + 1) * side
            c["weights.cells"] += cells
            c["weights.cells_read"] += side
            if self.in_peel:
                c["counts.peel_measured"] += cells

        def product(args, kwargs, result):
            x, y, order = args[0], args[1], args[2]
            xs = [len(p.terms) for p in x.coeffs[: order + 1]]
            ys = [len(p.terms) for p in y.coeffs[: order + 1]]
            c["poly.series_mul.term_products"] += sum(
                xs[i] * ys[j - i] for j in range(order + 1) for i in range(j + 1)
            )
            newest(args, kwargs, result)

        def newest(args, kwargs, result):
            c["poly.last_series_terms"] = sum(len(p.terms) for p in result.coeffs)

        def estimate(args, kwargs, result):
            if self.in_peel:
                c["counts.peel_estimate"] += result

        return {
            "weights.solution_count_grid": grid,
            "weights.c_ternary": point,
            "weights.weight_table": table,
            "poly.series_mul": product,
            "poly.expand_inverse_product": newest,
            "counts.peel_work_estimate": estimate,
        }


def _defined_in(fn: object, mod: ModuleType) -> bool:
    """A function (or lru_cache wrapper) that ``mod`` itself defines."""
    return (inspect.isfunction(fn) or hasattr(fn, "cache_clear")) and (
        getattr(fn, "__module__", None) == mod.__name__
    )


def _copy_identity(wrapper: Callable, fn: Callable) -> None:
    """functools.update_wrapper, plus lru_cache's cache_clear and
    cache_info, which module code calls through the binding."""
    functools.update_wrapper(wrapper, fn)
    for attr in ("cache_clear", "cache_info", "cache_parameters"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
