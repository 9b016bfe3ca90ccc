#!/usr/bin/env python3
"""Compare two result sets written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric it prints one row: each side's median and
quartiles over its runs, and the change of the medians. A timed metric
with a bound in BENCHMARK.json is marked WORSE when the new median is worse than
the base median by more than the bound. Model costs are simulated and
repeat exactly, so they are compared apart from the timed metrics, trial by
trial on the spec seeds both sets ran: any difference at all is listed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from run import MODEL_COSTS, ROOT


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def timed_rows(base: list[dict], new: list[dict], bounds: dict) -> list[str]:
    def by_metric(records):
        out = defaultdict(list)
        for r in records:
            for name, m in r["metrics"].items():
                if name not in MODEL_COSTS:
                    out[(r["workload"], r["trace"], name)].append(m["value"])
        return out

    a, b = by_metric(base), by_metric(new)
    rows = [f"{'workload':12s} {'trace':5s} {'metric':26s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s} {'change':>8s}"]
    for key in sorted(a.keys() & b.keys()):
        workload, trace, name = key
        (aq1, amed, aq3), (bq1, bmed, bq3) = quartiles(a[key]), quartiles(b[key])
        change, verdict = (bmed - amed) / amed if amed else None, ""
        if change is not None and name in bounds and trace == 0:
            better, bound = bounds[name]
            worse = change if better == "lower" else -change
            verdict = f"WORSE (bound {bound:g})" if worse > bound else "ok"
        rows.append(
            f"{workload:12s} {trace:<5d} {name:26s} "
            f"{amed:12.4f} [{aq1:.4f}, {aq3:.4f}] {bmed:12.4f} [{bq1:.4f}, {bq3:.4f}] "
            f"{'-' if change is None else f'{change:+.2%}':>8s} {verdict}"
        )
    return rows


def model_cost_rows(base: list[dict], new: list[dict]) -> list[str]:
    def by_trial(records):
        out = {}
        for r in records:
            for t in r["trials"] + r["traced_trials"]:
                out[(r["workload"], t["spec_seed"])] = {k: t[k] for k in MODEL_COSTS}
        return out

    a, b = by_trial(base), by_trial(new)
    shared = sorted(a.keys() & b.keys())
    rows = []
    for workload in sorted({w for w, _ in shared}):
        keys = [k for k in shared if k[0] == workload]
        diffs = [
            f"  spec seed {seed}: {cost} {a[(w, seed)][cost]} -> {b[(w, seed)][cost]}"
            for w, seed in keys
            for cost in MODEL_COSTS
            if a[(w, seed)][cost] != b[(w, seed)][cost]
        ]
        rows.append(f"{workload}: {len(keys)} shared trials, " + (f"{len(diffs)} model-cost changes" if diffs else "identical"))
        rows.extend(diffs)
    return rows or ["no trials with a shared spec seed"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    print("Timed metrics, medians and quartiles over runs:")
    print("\n".join(timed_rows(base, new, bounds)))
    print()
    print("Model costs, exact per trial:")
    print("\n".join(model_cost_rows(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
