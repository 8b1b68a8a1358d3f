#!/usr/bin/env python3
"""forminv benchmark: cold requests, timed end to end and per module.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selfcheck [--seed N]

A run is one closed-loop client in this single-threaded process.  It sends
the workload's requests one after another, in a seeded order, as passes over
the request list, until ``--seconds`` have passed and the workload's minimum
number of passes is done.  Before every request the package caches are
cleared through ``forminv.counts.clear_caches()`` (while that function
exists), so every request starts as a fresh ``forminv`` invocation would.
Every output is checked exactly against ``reference.json``.

Times are scaled to a reference machine speed (see ``speed.py``); the
report lines also print them unscaled.  A request's latency is its median
over the run's passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracer.Tracer`` and reports the
per-layer metrics; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every request returned the exact reference value, 1 when one did not,
and 2 when the benchmark could not run (no result line is printed then).
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import KERNEL_REF_S, Speedometer
from tracer import LAYERS, Tracer, TracerError
from workloads import WORKLOADS, Reference, Request, Workload, check, execute

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 15

# Per-layer metrics of a traced run (name -> unit), in report order.
TIMED = (
    "weights.solution_count_grid", "weights.c_ternary", "weights.omega_binary",
    "weights.weight_table", "poly.series_mul", "poly.expand_inverse_product",
    "poly.divexact", "poly.mul", "qbinom.pq_binomial", "qbinom.gaussian_binomial",
    "sl3.decompose", "sl3.character", "sl3.e_lambda",
)
COUNTED = (
    "weights.solution_count_grid.calls", "weights.c_ternary.calls",
    "weights.weight_table.calls", "weights.cells", "poly.series_mul.calls",
    "poly.series_mul.term_products", "poly.expand_inverse_product.calls",
    "poly.divexact.calls", "qbinom.pq_binomial.calls", "qbinom.gaussian_binomial.calls",
    "sl3.weight_multiplicity.calls", "counts.clear_caches.calls",
)
RATIOS = {  # name -> (numerator counter, denominator counter); 0 when nothing was computed
    "weights.cells_read_ratio": ("weights.cells_read", "weights.cells"),
    "poly.terms_read_ratio": ("poly.terms_read", "poly.terms_final"),
    "counts.peel_estimate_ratio": ("counts.peel_estimate", "counts.peel_measured"),
}
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{name}.s": "s" for name in TIMED},
    **{name: "count" for name in COUNTED},
    **{name: "ratio" for name in RATIOS},
    "trace.overhead_frac": "ratio",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mib": "MiB",
}

# What each workload must exercise (selfcheck): counter -> must it be nonzero.
CLAIMS = {
    "tables": {"weights.solution_count_grid.calls": True, "poly.series_mul.calls": False,
               "qbinom.pq_binomial.calls": False, "poly.divexact.calls": False,
               "sl3.weight_multiplicity.calls": False},
    "points": {"weights.c_ternary.calls": True, "qbinom.gaussian_binomial.calls": True,
               "poly.divexact.calls": True, "poly.series_mul.calls": False,
               "sl3.weight_multiplicity.calls": False},
    "crosscheck": {"poly.series_mul.calls": True, "poly.expand_inverse_product.calls": True,
                   "qbinom.pq_binomial.calls": True, "poly.divexact.calls": True,
                   "weights.solution_count_grid.calls": False, "weights.c_ternary.calls": False,
                   "weights.weight_table.calls": False, "sl3.weight_multiplicity.calls": False},
    "oracle": {"sl3.weight_multiplicity.calls": True, "weights.weight_table.calls": True,
               "poly.series_mul.calls": False, "weights.solution_count_grid.calls": False},
}
# Span-name prefixes predicted to take at least half of a workload's self time.
DOMINANT = {
    "tables": ("weights",),
    "points": ("weights",),
    "crosscheck": ("poly", "qbinom"),
    "oracle": ("sl3", "weights.weight_table"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


@dataclass
class Pass:
    """One pass, keyed by request label."""

    latencies: Dict[str, float]  # raw seconds
    speed: Dict[str, float]  # reference speed / measured speed around the request
    outputs: Dict[str, Tuple[Optional[int], object]]
    tracer: Optional[Tracer]

    def scaled(self) -> Dict[str, float]:
        return {k: t * self.speed[k] for k, t in self.latencies.items()}


def request_latencies(passes: List[Pass], raw: bool = False) -> List[float]:
    """Each request's median latency over the passes, sorted.  Quantiles of
    these stay put where pooled samples would jump across the gap between
    two requests of different cost."""
    runs = [p.latencies if raw else p.scaled() for p in passes]
    return sorted(statistics.median(r[k] for r in runs) for k in runs[0])


def import_package():
    """Import forminv from this checkout's src/, never from anywhere else."""
    if not (SRC / "forminv" / "__init__.py").is_file():
        raise BenchError(f"no forminv package under {SRC.name}/ of the checkout")
    sys.path.insert(0, str(SRC))
    import forminv
    import forminv.cli  # noqa: F401  (the CLI is not imported by the package)

    if not Path(forminv.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"forminv was imported from {forminv.__file__}")
    return forminv


def measure_setup() -> float:
    """Median time a fresh interpreter takes to ``import forminv.cli`` (which
    imports the package), scaled by the kernel timed in that interpreter
    just before and after.  Interpreter start-up itself is left out: no
    change to forminv can move it, and it is most of the noise."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; from speed import time_kernel; "
        "k0 = time_kernel(); t0 = time.perf_counter(); import forminv.cli; "
        "t1 = time.perf_counter(); print(t1 - t0, k0, time_kernel(), forminv.__file__)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"importing forminv failed: {proc.stderr.strip()}")
        seconds, k0, k1, path = proc.stdout.split(maxsplit=3)
        if not Path(path.strip()).resolve().is_relative_to(SRC):
            raise BenchError(f"forminv was imported from {path.strip()}")
        times.append(float(seconds) * 2 * KERNEL_REF_S / (float(k0) + float(k1)))
    return statistics.median(times)


def run_pass(requests: List[Request], package, rng: random.Random,
             tracer: Optional[Tracer] = None) -> Pass:
    """One pass over the requests in a seeded order, each with cold caches.
    Outputs are kept and checked after the pass, outside the timing."""
    order = list(requests)
    rng.shuffle(order)
    clear = getattr(package.counts, "clear_caches", None)
    clock = time.perf_counter
    windows, outputs = {}, {}
    with Speedometer(tracer.exclude if tracer is not None else None) as meter:
        for req in order:
            if clear is not None:
                clear()
            if tracer is not None:
                span = tracer.start_request(req)
            t0 = clock()
            try:
                result = execute(req, package)
            except Exception as exc:  # a failed request is counted, not fatal
                result = (None, exc)
            windows[req.label] = (t0, clock())
            if tracer is not None:
                tracer.finish_request(span, req, clear is not None)
            outputs[req.label] = result
    latencies = {k: t1 - t0 - meter.sampling_in(t0, t1) for k, (t0, t1) in windows.items()}
    speed = {k: meter.scale(t0, t1) for k, (t0, t1) in windows.items()}
    return Pass(latencies, speed, outputs, tracer)


def failures(requests: List[Request], passes: List[Pass]) -> List[str]:
    out = []
    for k, p in enumerate(passes):
        for req in requests:
            code, output = p.outputs[req.label]
            why = f"raised {output!r}" if code is None else check(req, code, output)
            if why is not None:
                out.append(f"pass {k}: {req.label}: {why}")
    return out


def same_outputs(requests: List[Request], a: Pass, b: Pass) -> List[str]:
    return [
        f"traced and untraced outputs differ: {req.label}"
        for req in requests
        if a.outputs[req.label] != b.outputs[req.label]
    ]


def end_to_end(workload: Workload, setup: float, passes: List[Pass]) -> Dict[str, float]:
    lat = request_latencies(passes)
    return {
        "setup_s": setup,
        "wall_s": sum(lat),
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.tail": _percentile(lat, workload.tail_pct) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer(traced: List[Pass], plain: List[Pass]) -> Dict[str, float]:
    selfs = [p.tracer.self_times() for p in traced]
    counts = traced[0].tracer.calls()
    out = {
        f"{layer}.self_s": statistics.median(_share_of(st, (layer,)) for st in selfs)
        for layer in LAYERS
    }
    out.update({f"{n}.s": statistics.median(st.get(n, 0.0) for st in selfs) for n in TIMED})
    out.update({n: counts[n] for n in COUNTED})
    out.update({n: counts[a] / counts[b] if counts[b] else 0.0 for n, (a, b) in RATIOS.items()})
    out["trace.overhead_frac"] = sum(request_latencies(traced)) / sum(request_latencies(plain)) - 1
    return out


def _share_of(self_times: Dict[str, float], prefixes: Tuple[str, ...]) -> float:
    return sum(
        (v for k, v in self_times.items() if any(k == p or k.startswith(p + ".") for p in prefixes)),
        0.0,
    )


def write_spans(name: str, seed: int, traced: List[Pass]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for k, p in enumerate(traced):
            fh.write(json.dumps({"pass": k, "spans": p.tracer.spans}) + "\n")
    return path


def measure(workload: Workload, seed: int, seconds: float, trace: bool, ref: Reference,
            package) -> Tuple[dict, List[str]]:
    """One benchmark run; returns the result object and report lines."""
    rng = random.Random(seed)
    requests = workload.build(rng, ref)
    setup = measure_setup()
    deadline = time.perf_counter() + seconds
    plain: List[Pass] = []
    traced: List[Pass] = []
    if not trace:
        while len(plain) < workload.min_passes or time.perf_counter() < deadline:
            plain.append(run_pass(requests, package, rng))
    else:
        while not traced or time.perf_counter() < deadline:
            if len(plain) <= len(traced):
                plain.append(run_pass(requests, package, rng))
            else:
                with Tracer(package) as tracer:
                    traced.append(run_pass(requests, package, rng, tracer))

    passes = plain + traced
    failed = failures(requests, passes)
    for p in traced:
        failed += same_outputs(requests, plain[0], p)
    problems = list(failed)
    if any(p.tracer.calls() != traced[0].tracer.calls() for p in traced):
        problems.append("work counters differ between traced passes")
    attempted = len(requests) * len(passes)
    caches = "cleared" if getattr(package.counts, "clear_caches", None) else "not cleared"
    lines = [
        f"perfbench workload={workload.name} seed={seed} trace={int(trace)} "
        f"passes={len(plain)} untraced + {len(traced)} traced, "
        f"{len(requests)} requests per pass, caches {caches} before each request",
        f"failed_frac = {len(failed) / attempted} ({len(failed)} of {attempted} requests)",
    ]
    lines += [f"FAIL {why}" for why in problems[:20]]
    if not trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(workload, setup, plain).items()}
        raw = request_latencies(plain, raw=True)
        beyond = len(raw) * len(plain) * (100 - workload.tail_pct) / 100
        lines.append(
            f"latency of a request = its median over {len(plain)} passes; op_ms.tail is "
            f"p{workload.tail_pct} of {len(raw)} requests ({beyond:g} samples beyond it)"
        )
        lines.append(
            f"unscaled: wall_s = {sum(raw)} s, "
            f"op_ms.p50 = {statistics.median(raw) * 1e3} ms, "
            f"op_ms.tail = {_percentile(raw, workload.tail_pct) * 1e3} ms; median speed "
            f"scale {statistics.median(f for p in plain for f in p.speed.values())}"
        )
    else:
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                   for k, v in per_layer(traced, plain).items()}
        lines.append(f"spans: {write_spans(workload.name, seed, traced).relative_to(ROOT)}")
    lines += [f"{k} = {m['value']} {m['unit']}" for k, m in metrics.items()]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, lines


def selfcheck(seed: int, ref: Reference, package) -> List[str]:
    """Checks of the benchmark itself; returns the problems found."""
    problems = []
    for w in WORKLOADS.values():
        requests = w.build(random.Random(seed), ref)
        plain = run_pass(requests, package, random.Random(seed))
        traced = []
        for _ in range(2):
            with Tracer(package) as tracer:
                traced.append(run_pass(requests, package, random.Random(seed), tracer))
        found = failures(requests, [plain, *traced]) + same_outputs(requests, plain, traced[0])
        a, b = (p.tracer.calls() for p in traced)
        if a != b:
            found.append(f"work counters differ between two traced passes: {a ^ b}")
        for counter, nonzero in CLAIMS[w.name].items():
            if bool(a[counter]) != nonzero:
                found.append(f"{counter} = {a[counter]}, expected {'> 0' if nonzero else '0'}")
        st = traced[0].tracer.self_times()
        share = _share_of(st, DOMINANT[w.name]) / sum(st.values())
        if share < 0.5:
            found.append(f"{'+'.join(DOMINANT[w.name])} take {share:.0%} of self time")
        reported = set(per_layer(traced, [plain]))
        if reported != set(PER_LAYER_UNITS):
            found.append(f"per-layer metrics reported differ: {reported ^ set(PER_LAYER_UNITS)}")
        print(f"{'PASS' if not found else 'FAIL'}  {w.name}: claims, repeat counters, "
              f"traced == untraced, {'+'.join(DOMINANT[w.name])} = {share:.0%} of self time")
        problems += [f"{w.name}: {why}" for why in found]

    # a deliberately wrong reference value must make a run fail
    bad = Reference.load()
    bad.extended[8][24] += 1
    result, _ = measure(WORKLOADS["tables"], seed, 0, False, bad, package)
    wrong_ok = not result["correct"] and result["failed"] > 0
    print(f"{'PASS' if wrong_ok else 'FAIL'}  a wrong reference value fails the run")
    if not wrong_ok:
        problems.append("a wrong reference value went unnoticed")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        if listed != units:
            problems.append(f"BENCHMARK.json {section} does not match the metrics reported")
    print(f"{'PASS' if not problems else 'FAIL'}  selfcheck")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the benchmark itself instead of measuring")
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    try:
        package = import_package()
        ref = Reference.load()
        if args.selfcheck:
            problems = selfcheck(args.seed, ref, package)
            for why in problems:
                print(f"FAIL {why}")
            return 1 if problems else 0
        result, lines = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ref, package
        )
    except (BenchError, TracerError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
