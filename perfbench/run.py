#!/usr/bin/env python3
"""Benchmark of ampcsim: host time and model costs of verified trials.

    python3 perfbench/run.py --workload conn-reduce --seed 1 --seconds 40 --trace 0

Each trial goes through ``harness.run_experiment`` exactly as a user runs
it: instance generation, the algorithm, then the oracle check. Trials run
one after another for about ``--seconds``, and at least the workload's
``cost_trials``. With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` every
trial is run twice under the same seed, once plain and once with each
layer's public functions wrapped in spans, and the per-layer metrics are
printed. The last line of standard output is one JSON object; the lines
before it are a table of every metric with its unit. The exit code is 1 if
any trial failed, or if a traced trial's model costs differ from its
untraced twin. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import numpy
    from ampcsim import biconnectivity, connectivity, contraction, harness
    from ampcsim.errors import CapacityError, LeaderContractionError, NonTerminationError, StructureError
    from ampcsim.runtime import BudgetViolationError, RecordSizeError

    import probes
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import ampcsim from {SRC}: {exc}")

EPSILON = 0.5
MODEL_ERRORS = (
    BudgetViolationError,
    CapacityError,
    LeaderContractionError,
    NonTerminationError,
    RecordSizeError,
    StructureError,
)
# Model costs and their units; they are simulated, so they repeat exactly.
MODEL_COSTS = {
    "rounds": "rounds",
    "adaptive_rounds": "rounds",
    "max_queries": "queries",
    "communication": "ops",
    "budget_violations": "count",
}


@dataclasses.dataclass(frozen=True)
class Workload:
    algorithm: str  # harness algorithm name
    n: int
    m: int
    entry: tuple  # (module, function) the harness calls once the input is built
    cost_trials: int  # model costs are means over this many first trials, which every run completes


# Why each workload is here: perfbench/README.md.
WORKLOADS = {
    "conn-reduce": Workload("connectivity", 100_000, 1_000_000, (connectivity, "connectivity"), 3),
    "rank-store": Workload("list-rank", 300_000, 0, (contraction, "list_ranking"), 8),
    "bc-pipeline": Workload("2ecc", 8_000, 24_000, (biconnectivity, "bc_pipeline"), 8),
}
# The same workloads at sizes that take well under a second, for warm-up and
# the smoke test.
TINY = {"conn-reduce": (1024, 4096), "rank-store": (1024, 0), "bc-pipeline": (512, 1536)}


def tiny(name: str) -> Workload:
    n, m = TINY[name]
    return dataclasses.replace(WORKLOADS[name], n=n, m=m)


def trial_spec_seed(seed: int, k: int) -> int:
    """Spec seed of the k-th trial of a run: trial k of a seed always gets
    the same input, however many trials the run fits in."""
    return (seed << 20) | k


def run_trial(workload: Workload, spec_seed: int, probe: probes.TrialProbe, tracer: probes.Tracer | None = None) -> dict:
    spec = harness.ExperimentSpec(
        algorithm=workload.algorithm, n=workload.n, m=workload.m, epsilon=EPSILON, seed=spec_seed
    )
    gc.collect()
    if tracer is not None:
        tracer.start_trial()
    probe.start_trial()
    try:
        record, error = harness.run_experiment(spec).records[0], None
    except MODEL_ERRORS as exc:
        record, error = None, f"{type(exc).__name__}: {exc}"
    ended = probes.clock()
    if error is None and probe.entered is None:
        error = f"{workload.entry[1]} was never called, so set-up cannot be split from solving"

    trial_s = ended - probe.started
    setup_s = probe.setup_s(ended)
    out = {
        "spec_seed": spec_seed,
        "correct": error is None and record.correct,
        "error": error,
        "trial_s": trial_s,
        "setup_s": setup_s,
        "oracle_s": probe.oracle_s,
        "solve_s": trial_s - setup_s - probe.oracle_s,
        **probe.model_costs(),
        "reported_rounds": record.rounds if record is not None else None,
        "charged_rounds": probe.charged_rounds(),
        "simulators": len(probe.simulators),
    }
    if tracer is not None:
        out["self_s"] = dict(tracer.self_s, **{"harness.other": trial_s - tracer.covered})
        out["counts"] = dict(tracer.counts)
    return out


def measure(workload: Workload, warmup: Workload, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Plain trials, and with ``trace`` a traced twin of each.

    A new trial starts while the run has fewer than ``cost_trials`` trials,
    or while it would end, on the median so far, less than half a trial past
    ``seconds``. So runs last about ``seconds``, and the trials model costs
    are taken from are the same on every host.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    with probes.TrialProbe(workload.entry) as probe:
        run_trial(warmup, trial_spec_seed(seed, 0), probe)
        started = probes.clock()
        while len(plain) < workload.cost_trials or probes.clock() - started + statistics.median(durations) / 2 < seconds:
            began = probes.clock()
            spec_seed = trial_spec_seed(seed, len(plain))
            plain.append(run_trial(workload, spec_seed, probe))
            if trace:
                with probes.Tracer() as tracer:
                    traced.append(run_trial(workload, spec_seed, probe, tracer))
            durations.append(probes.clock() - began)
    return plain, traced


def _median(trials: list[dict], key) -> float:
    return statistics.median(key(t) if callable(key) else t[key] for t in trials)


def _mean(trials: list[dict], key: str) -> float:
    return statistics.fmean(t[key] for t in trials)


def _fail_frac(trials: list[dict]) -> float:
    return sum(not t["correct"] for t in trials) / len(trials)


def end_to_end_metrics(workload: Workload, plain: list[dict], peak_rss_mb: float) -> dict:
    """Host times are medians over all trials; model costs are means over
    the first ``cost_trials``, so that a seed always gives the same ones."""
    return {
        "trial_s": (_median(plain, "trial_s"), "s"),
        "setup_s": (_median(plain, "setup_s"), "s"),
        "solve_s": (_median(plain, "solve_s"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fail_frac": (_fail_frac(plain), "ratio"),
        **_model_costs(workload, plain),
    }


def _model_costs(workload: Workload, trials: list[dict]) -> dict:
    first = trials[: workload.cost_trials]
    return {key: (_mean(first, key), unit) for key, unit in MODEL_COSTS.items()}


# Per-layer metric -> the span whose self time it is, in seconds.
LAYER_TIMES = {f"{span}_s": span for span in (*probes.SPAN_NAMES, "harness.other")}
# Per-layer metric -> the tracer count it is.
LAYER_COUNTS = {
    "graphs.builds": "builds",
    "graphs.edges_built": "edges_built",
    "runtime.store_reads": "store_reads",
    "runtime.store_writes": "store_writes",
}


def per_layer_metrics(workload: Workload, plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced trials."""
    out = {name: (_median(traced, lambda t, s=span: t["self_s"][s]), "s") for name, span in LAYER_TIMES.items()}
    for name, key in LAYER_COUNTS.items():
        out[name] = (_median(traced, lambda t, k=key: t["counts"].get(k, 0)), "count")
    out["runtime.simulators"] = (_median(traced, "simulators"), "count")
    out["runtime.charged_rounds"] = (_median(traced, "charged_rounds"), "rounds")
    out["harness.reported_rounds"] = (_median(traced, lambda t: t["reported_rounds"] or 0), "rounds")
    out["harness.unreported_rounds"] = (
        _median(traced, lambda t: t["rounds"] - (t["reported_rounds"] or 0)), "rounds"
    )
    out["trace.trial_s"] = (_median(traced, "trial_s"), "s")
    out["trace.overhead_s"] = (_median(traced, "trial_s") - _median(plain, "trial_s"), "s")
    out["fail_frac"] = (_fail_frac(plain + traced), "ratio")
    out.update(_model_costs(workload, traced))
    return out


def trace_mismatches(plain: list[dict], traced: list[dict]) -> list[str]:
    """Tracing must change nothing that is simulated."""
    keys = (*MODEL_COSTS, "reported_rounds", "correct")
    return [
        f"spec seed {a['spec_seed']}: {key} untraced {a[key]} traced {b[key]}"
        for a, b in zip(plain, traced)
        for key in keys
        if a[key] != b[key]
    ]


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def reported_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's record, trials and environment as a JSON line")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 40:
        parser.error("--seed must be in [0, 2**40)")
    if not Path(harness.__file__).resolve().is_relative_to(SRC.resolve()):
        parser.error(f"ampcsim was imported from {harness.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    plain, traced = measure(workload, tiny(args.workload), args.seed, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e_names, layer_names = reported_names()
    if args.trace:
        metrics, names = per_layer_metrics(workload, plain, traced), layer_names
    else:
        metrics, names = end_to_end_metrics(workload, plain, peak_rss_mb), e2e_names
    problems = [f"spec seed {t['spec_seed']}: {t['error'] or 'oracle mismatch'}" for t in plain + traced if not t["correct"]]
    problems += trace_mismatches(plain, traced)
    correct = not problems

    for line in problems:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} n={workload.n} m={workload.m} seed={args.seed} trace={args.trace} trials={len(plain)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))

    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "n": workload.n,
            "m": workload.m,
            "env": env,
            "correct": correct,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "trials": plain,
            "traced_trials": traced,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": len(plain) + len(traced),
        "failed": sum(not t["correct"] for t in plain + traced),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
