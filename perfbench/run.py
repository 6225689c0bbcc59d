"""Layered benchmark for malcevlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
./src.  A run repeats one round after another while the next round is
expected to end within S seconds (at least one round): a round is a slot of
repeated set-ups followed by one pass of the workload, which uses the state
of the slot's last set-up.  A faster program does more passes in S seconds.
Before the first pass the workload's reference is computed, untimed; each
pass is checked against it.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics, each metric with the
unit BENCHMARK.json declares for it.

--trace 0 reports the end-to-end metrics (tracing off):
  wall_s       wall time of one pass (median over passes)
  cpu_s        user + system CPU of this process and its children, one pass
  peak_rss_mb  ru_maxrss of this process and of its largest child
  setup_s      time of one set-up: input generation, rebasing and algebra
               construction.  Each slot keeps its fastest set-up, and
               setup_s is the median of those over the run's slots.  On a
               shared 2-vCPU machine the same 4-ms set-up took either about
               4 ms or about 7.5 ms, depending on a machine state that lasts
               for seconds: the median of one slot jumped between the two,
               its fastest set-up did not.
It also prints, but does not report in the JSON, the latency of one
operation: its median (op_p50_ms) and the highest percentile with ten
operations beyond it (op_tail_ms), with that percentile and the sample
count.  Over ten runs on a shared 2-vCPU machine their quartile spread
reached 0.36 of the median, more than any bound a regression gate may use.
The error rate, failed over attempted operations, is printed too and is
carried by the `failed` and `attempted` keys.

--trace 1 runs one set-up and one pass with malcevlab's public functions
wrapped in spans (tracer.py) and reports the per-layer metrics.
`<layer>.<fn>.s` is self time in the pass, `verify.stage.<name>.s` the
stage's whole span.  Counts repeat exactly for a given seed.  A layer a
workload does not touch reads 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SLOT_SECONDS = 1.0  # set-ups repeat for this long before each pass ...
SETUP_SLOT_REPEATS = 3    # ... and at least this many times
SUBSPACE_FUNCTIONS = ("power_chain", "lie_kernel", "jacobian_span", "ideal_closure",
                      "quotient_algebra", "subalgebra_generate", "product_subspace",
                      "full_space")
CLI_COMMANDS = ("build", "check", "classify", "kernel", "powers", "generate")


def _import_package():
    if not (SRC / "malcevlab" / "__init__.py").is_file():
        sys.exit(f"error: no malcevlab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import malcevlab

    if Path(malcevlab.__file__).resolve().parent != SRC / "malcevlab":
        sys.exit(f"error: imported malcevlab from {malcevlab.__file__}, not from {SRC}")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # Linux reports KiB


def _latency_line(ops) -> str:
    """Median operation latency and the highest percentile with at least
    ten operations beyond it; the tail only when it lies above the median."""
    ranked = sorted(ops)
    n = len(ranked)
    line = f"  op_p50_ms {median(ranked) * 1e3:.6g} ms"
    if n >= 20:
        index = n - 11
        line += (f", op_tail_ms {ranked[index] * 1e3:.6g} ms "
                 f"(p{100.0 * (index + 1) / n:.1f} of {n} operations)")
    return line + f" over {n} operations"


def layer_metrics(tracer, extra: dict, setup_construct: tuple) -> dict:
    """Per-layer metrics of one traced pass.  `extra` holds the workload's
    own figures; `setup_construct` the construct calls and self time of one
    set-up, which construct.* adds to the pass's."""
    from workloads import PAPER_STAGES

    agg = tracer.get

    calls, mul_s, zeros, fractions = tracer.mul
    m = {
        "algebra.multiply_sparse.calls": calls,
        "algebra.multiply_sparse.s": mul_s,
        "algebra.multiply_sparse.zero_ratio": zeros / calls if calls else 0.0,
        "algebra.multiply_sparse.fraction_ratio": fractions / calls if calls else 0.0,
        "algebra.from_text.s": agg("algebra.from_text").self_s,
        "algebra.to_text.s": agg("algebra.to_text").self_s,
    }
    scans = [agg("engine.check_identity"), agg("engine.check_skew_symmetric")]
    for name, a in zip(("check_identity", "check_skew_symmetric"), scans):
        m[f"engine.{name}.calls"] = a.calls
        m[f"engine.{name}.s"] = a.self_s
    tuples = sum(a.extra.get("tuples", 0) for a in scans)
    scan_s = sum(a.incl_s for a in scans)
    m["engine.tuples"] = tuples
    m["engine.tuples_per_s"] = tuples / scan_s if scan_s else 0.0
    m["engine.mul_per_tuple"] = sum(a.mul_incl for a in scans) / tuples if tuples else 0.0
    for stage in PAPER_STAGES:
        m[f"verify.stage.{stage}.s"] = agg(f"verify.stage.{stage}").incl_s
    for fn in SUBSPACE_FUNCTIONS:
        a = agg(f"subspaces.{fn}")
        m[f"subspaces.{fn}.calls"] = a.calls
        m[f"subspaces.{fn}.s"] = a.self_s
    m["subspaces.mul_calls"] = sum(a.mul_self for name, a in tracer.aggs.items()
                                   if name.startswith("subspaces."))
    for fn in ("classify", "is_nilpotent"):
        m[f"classify.{fn}.s"] = agg(f"classify.{fn}").self_s
    lin, parse = agg("identities.linearize"), agg("identities.parse_identity")
    m["identities.linearize.calls"] = lin.calls
    m["identities.linearize.s"] = lin.self_s
    m["identities.linearize.terms"] = lin.extra.get("terms", 0)
    m["identities.parse_identity.calls"] = parse.calls
    m["identities.parse_identity.s"] = parse.self_s
    for key in ("cli.import_ms", "cli.cold_start_ms") + tuple(f"cli.{c}.ms" for c in CLI_COMMANDS):
        m[key] = extra.get(key, 0.0)
    calls, self_s = _construct_totals(tracer)
    m["construct.calls"] = setup_construct[0] + calls
    m["construct.s"] = setup_construct[1] + self_s
    return m


def _construct_totals(tracer) -> tuple:
    construct = [a for name, a in tracer.aggs.items() if name.startswith("construct.")]
    return sum(a.calls for a in construct), sum(a.self_s for a in construct)


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have: {', '.join(WORKLOADS)}")

    units = declared_units(bool(args.trace))
    patches = tracing.Patches()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer, patches)
    workload = WORKLOADS[args.workload](patches)
    try:
        return _measure(workload, tracer, args, units)
    finally:
        workload.close()
        patches.undo()


def _set_up(workload, seed, tracer) -> tuple:
    """One slot of set-ups: the last state and the fastest set-up's time."""
    times = []
    while True:
        if tracer is not None:
            tracer.reset()  # the traced run keeps the counts of its one set-up
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        if tracer is not None or (len(times) >= SETUP_SLOT_REPEATS
                                  and sum(times) >= SETUP_SLOT_SECONDS):
            return state, min(times)


def _measure(workload, tracer, args, units) -> int:
    setup_bests: list = []
    ops: list = []
    walls, cpus = [], []
    layers: dict = {}
    failures: list = []
    reference = None
    start = time.perf_counter()
    while True:
        slot0 = time.perf_counter()
        state, best = _set_up(workload, args.seed, tracer)
        setup_bests.append(best)
        slot = time.perf_counter() - slot0
        if reference is None:
            setup_construct = _construct_totals(tracer) if tracer is not None else (0, 0.0)
            reference = workload.reference(state)
        if tracer is not None:
            tracer.reset()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            outputs = workload.run_pass(state, ops)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            extra = workload.trace_metrics(state) if tracer is not None else {}
            failures.extend(workload.check(state, reference, outputs))
        except Exception:  # the program raised: a failed operation, and the run stops
            traceback.print_exc()
            failures.append("pass raised")
            ops.append(time.perf_counter() - t0)
            break
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            failures.extend(f"traced run recorded no {name} call"
                            for name in workload.required_spans if name not in tracer.aggs)
            if not tracer.mul[0]:
                failures.append("traced run recorded no multiply_sparse call")
            layers = layer_metrics(tracer, extra, setup_construct)
        # the next round is expected to take as long as this one
        if tracer is not None or failures or \
                time.perf_counter() - start + slot + wall > args.seconds:
            break

    attempted = max(len(ops), 1)
    failed = min(len(failures), attempted)
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}: {len(walls)} passes, "
          f"{len(ops)} operations, error_rate {failed / attempted:.4g} "
          f"({failed} of {attempted} failed)")

    if tracer is None:
        metrics = {}
        if walls:
            metrics = {
                "wall_s": median(walls),
                "cpu_s": median(cpus),
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": median(setup_bests),
            }
            print(_latency_line(ops))
    else:
        metrics = layers
        if walls:
            print(f"  traced pass wall_s {walls[0]:.4f}")
    if metrics and set(metrics) != set(units):
        sys.exit("error: metrics differ from those BENCHMARK.json declares: "
                 f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {units[name]}")

    result = {
        "correct": not failures and bool(walls),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
