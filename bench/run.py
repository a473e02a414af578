"""mapstop benchmark: four user workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py                     # every workload, untraced then traced
    python3 bench/run.py --workload solve_sweep --seed 3 --seconds 25 --trace 0

One workload runs in this process.  It loads the workload's models from
the seed, repeats passes over them for --seconds, checks the outputs and
prints the metrics, one per line with its unit, then one JSON object as
the last line.  --trace 0 gives the end-to-end metrics; --trace 1 gives
the per-layer metrics from spans around each call into the program and
writes the spans to .bench_out/.  The program is imported from src/ next
to this directory; without it the benchmark exits with status 1.
"""

import os

# Pin BLAS before numpy loads, so one process never asks for more threads
# than the machine has cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("solve_sweep", "mc_exit", "stop_value", "oracle_contour")
SETUP_PROBES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("ok_frac", "fraction"),
    ("accurate_frac", "fraction"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    "config.load_model",
    "model.kappa",
    "model.phi",
    "scale.spectral_decompose",
    "scale.ScaleTable.from_rep",
    "scale.a_threshold",
    "fluctuation.two_sided",
    "fluctuation.one_sided_up",
    "fluctuation.generator_check",
    "stopping.solve_shepp",
    "stopping.solve_boundary_ode",
    "invert.talbot_invert",
    "simulate.estimate_exit",
    "simulate.verify_mgf",
    "simulate.estimate_stopped_gain",
)
COUNTS = (
    "scale.roots",
    "scale.table_rows",
    "stopping.ode_steps",
    "simulate.estimate_exit.paths",
    "simulate.verify_mgf.paths",
    "simulate.estimate_stopped_gain.paths",
    "simulate.estimate_stopped_gain.n_effective",
)
# paths per second: (path count, layer whose seconds divide it)
RATES = {
    f"{layer}.paths_per_s": (f"{layer}.paths", layer)
    for layer in ("simulate.estimate_exit", "simulate.verify_mgf",
                  "simulate.estimate_stopped_gain")
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s",
                      f"{layer}.ms.p50": "ms", f"{layer}.failed": "count"})
    units.update({name: "count" for name in COUNTS})
    units["stopping.ode_us_per_step"] = "us"
    units.update({name: "1/s" for name in RATES})
    units.update({"trace.solve_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
                  "bench.glue.s": "s"})
    return units


def locate_program():
    """Put the checkout's src/ first on the import path, or exit."""
    if not (SRC / "mapstop" / "__init__.py").is_file():
        sys.exit(f"bench: no mapstop sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def environment():
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def setup_probe(workload, seed):
    """What a fresh process pays: import mapstop, generate and load models."""
    from harness import Tracer
    from workloads import ITEM_LISTS

    ITEM_LISTS[workload](seed, Tracer(False))


class SetupProbes:
    """Times fresh set-up processes, one per call, spread over the run."""

    def __init__(self, workload, seed, picker):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.picker = picker
        self.times = []
        self.walls = []

    def __call__(self):
        from harness import timed

        if len(self.times) >= SETUP_PROBES:
            return
        self.picker.pick()
        result, wall, scaled = timed(lambda: subprocess.run(
            self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL))
        if isinstance(result, Exception):
            raise result
        self.times.append(scaled)
        self.walls.append(wall)


def layer_metrics(tracer, untraced, traced):
    """Per-pass layer figures from the spans of the traced passes.

    Layer seconds are unscaled wall time from the fastest traced pass,
    rates come from the same, counts from the median pass; `.ms.p50` is
    the median over every traced call.  config.load_model runs once, at
    set-up.  trace.solve_s and trace.overhead_s use scaled item times, like
    the end-to-end solve_s.
    """
    from harness import best_times

    selfs = tracer.self_times()
    per = {}
    durations = {}

    def add(p, key, value):
        row = per.setdefault(p, {})
        row[key] = row.get(key, 0.0) + value

    for sid, _, _, name, p, t0, t1, failed in tracer.spans:
        add(p, "trace.spans", 1)
        if name == "item":
            add(p, "bench.glue.s", selfs[sid])
        if name in LAYERS:
            add(p, f"{name}.calls", 1)
            add(p, f"{name}.s", selfs[sid])
            add(p, f"{name}.failed", float(failed))
            durations.setdefault(name, []).append(t1 - t0)
    for p, name, value in tracer.counts:
        add(p, name, value)
    for row in per.values():
        for rate, (count, layer) in RATES.items():
            secs = row.get(f"{layer}.s", 0.0)
            row[rate] = row.get(count, 0.0) / secs if secs else 0.0
        steps = row.get("stopping.ode_steps", 0.0)
        secs = row.get("stopping.solve_boundary_ode.s", 0.0)
        row["stopping.ode_us_per_step"] = 1e6 * secs / steps if steps else 0.0

    def pick(name):
        rows = [row for p, row in per.items() if (p < 0) == name.startswith("config.")]
        vals = [row.get(name, 0.0) for row in rows] or [0.0]
        if name.endswith((".s", "_per_step")):
            return min(vals)
        if name.endswith("_per_s"):
            return max(vals)
        return statistics.median(vals)

    metrics = {}
    for name in per_layer_units():
        if name.endswith(".ms.p50"):
            d = durations.get(name[:-len(".ms.p50")], [])
            metrics[name] = 1e3 * statistics.median(d) if d else 0.0
        else:
            metrics[name] = pick(name)
    metrics["trace.solve_s"] = sum(best_times(traced))
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - sum(best_times(untraced))
    return metrics


def run_workload(workload, seed, seconds, trace):
    from harness import (CorePicker, Tracer, best_times, fingerprint, measure, percentile,
                         tail_percentile)
    from workloads import ITEM_LISTS

    print("environment " + json.dumps(environment(), sort_keys=True))
    picker = CorePicker()
    probes = SetupProbes(workload, seed, picker)
    tracer = Tracer(enabled=bool(trace))
    tracer.pass_no = -1
    with tracer.span("setup"):
        items = ITEM_LISTS[workload](seed, tracer)
    tracer.pass_no = 0

    # Untimed warm-up: lazy imports and first-call set-up in the program.
    try:
        items[0].run(Tracer(False), {})
    except Exception:  # the measured passes record the failure
        pass

    # Peak memory of a one-shot run: set-up plus the first pass.  Later
    # passes only add allocator fragmentation that varies from run to run.
    peak_rss = []

    def between():
        if not peak_rss:
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        probes()

    if trace:
        passes = measure(items, seconds, tracer, picker, alternate=True)
    else:
        probes()
        passes = measure(items, seconds, tracer, picker, between=between)
        while len(probes.times) < SETUP_PROBES:
            probes()

    first = passes[0][0]
    prints = {fingerprint(items, outcomes) for outcomes, _ in passes}
    deterministic = len(prints) == 1
    n_items = len(items)
    n_failed = sum(oc.error is not None for oc in first)
    n_accurate = 0
    anchors_ok = True
    outs = {it.name: oc.outputs for it, oc in zip(items, first) if oc.error is None}
    for it, oc in zip(items, first):
        if oc.error is not None:
            ok, detail = False, f"raised {oc.error}"
        else:
            ok, detail = it.check(oc.outputs, outs)
        n_accurate += ok
        anchors_ok &= ok or not it.anchor
        if not ok:
            print(f"check {'anchor ' if it.anchor else ''}{it.name}: FAIL {detail}")
    correct = anchors_ok and deterministic
    print(f"fingerprint {workload} seed {seed} {sorted(prints)[0]}"
          + ("" if deterministic else f" (passes disagree: {len(prints)} prints)"))
    print(f"passes {len(passes)} items {n_items} failed {n_failed} accurate {n_accurate} "
          f"anchors_ok {anchors_ok}")

    if trace:
        metrics = layer_metrics(tracer, passes[0::2], passes[1::2])
        units = per_layer_units()
        write_trace(workload, seed, tracer)
    else:
        best = best_times(passes)
        raw = [min(outcomes[i].seconds for outcomes, _ in passes) for i in range(n_items)]
        print(f"wall, unscaled: solve_s {sum(raw):.6g} s, item_ms.p50 "
              f"{1e3 * statistics.median_low(raw):.6g} ms, setup_s "
              f"{statistics.median(probes.walls):.6g} s")
        pct = tail_percentile(n_items)
        print(f"item times are each item's fastest of {len(passes)} passes; item_ms.p50 is "
              f"their lower median, item_ms.tail percentile {pct:g} of {n_items} items")
        metrics = {
            "setup_s": statistics.median(probes.times),
            "solve_s": sum(best),
            "item_ms.p50": 1e3 * statistics.median_low(best),
            "item_ms.tail": 1e3 * percentile(best, pct),
            "ok_frac": (n_items - n_failed) / n_items,
            "accurate_frac": n_accurate / n_items,
            "peak_rss_mb": peak_rss[0],
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"metric {workload} {name} {value:.6g} {units[name]}")
    result = {
        "correct": bool(correct),
        "attempted": n_items * len(passes),
        "failed": n_failed * len(passes),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def write_trace(workload, seed, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    doc = {
        "fields": ["id", "parent", "item", "name", "pass", "start", "end", "failed"],
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    (OUT_DIR / f"trace_{workload}_seed{seed}.json").write_text(json.dumps(doc))


def run_all(seed, seconds):
    """Each workload in its own process, untraced then traced."""
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.exit(f"bench: {workload} (trace {trace}) exited with {proc.returncode}")
            summary[f"{workload}.trace{trace}"] = json.loads(proc.stdout.splitlines()[-1])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"summary_seed{seed}.json"
    path.write_text(json.dumps({"environment": environment(), "runs": summary}, indent=1))
    print(f"summary written to {path.relative_to(ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    locate_program()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    else:
        run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
