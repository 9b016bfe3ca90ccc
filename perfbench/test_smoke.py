"""Smoke test of the benchmark: every workload at its tiny size (n <= 1024),
through the same code as a full run.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on the path)
import compare  # noqa: E402
from ampcsim import contraction, harness, oracles  # noqa: E402

# Every metric the benchmark's documentation names.
END_TO_END = (
    "trial_s", "setup_s", "solve_s", "peak_rss_mb", "fail_frac",
    "rounds", "adaptive_rounds", "max_queries", "communication", "budget_violations",
)
PER_LAYER = (
    "graphs.generate_s", "graphs.build_s", "graphs.builds", "graphs.edges_built",
    "runtime.round_s", "runtime.store_reads", "runtime.store_read_s", "runtime.store_writes",
    "runtime.store_write_s", "runtime.init_s", "runtime.charged_rounds", "runtime.charge_s",
    "runtime.simulators", "connectivity.reduce_s", "connectivity.self_s", "contraction.self_s",
    "trees.self_s", "biconnectivity.self_s", "primitives.self_s", "oracles.verify_s",
    "harness.reported_rounds", "harness.unreported_rounds", "harness.other_s", "trace.overhead_s",
)


def _run(capsys, monkeypatch, workload, *args) -> tuple[int, list[str], dict]:
    monkeypatch.setitem(run.WORKLOADS, workload, run.tiny(workload))
    code = run.main(["--seconds", "0", "--seed", "3", "--workload", workload, *args])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _bindings() -> dict:
    mods = [m for key, m in sys.modules.items() if key.split(".")[0] == "ampcsim"]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    for m in mods:
        for cls in vars(m).values():
            if isinstance(cls, type):
                out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(capsys, monkeypatch, workload, trace):
    code, lines, result = _run(capsys, monkeypatch, workload, "--trace", str(trace))
    assert code == 0 and result["correct"] and result["failed"] == 0
    e2e, layer = run.reported_names()
    assert list(result["metrics"]) == (layer if trace else e2e)
    table = {line.split()[0] for line in lines[:-1]}
    assert set(PER_LAYER if trace else END_TO_END) <= table
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == m["unit"] for name, m in result["metrics"].items())
    if not trace:
        assert 0 < result["metrics"]["setup_s"]["value"] < result["metrics"]["trial_s"]["value"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tracing_changes_no_model_cost_and_accounts_for_the_trial(workload):
    before = _bindings()
    w = run.tiny(workload)
    plain, traced = run.measure(w, w, seed=5, seconds=0, trace=True)
    assert _bindings() == before, "probes left a function rebound"
    assert run.trace_mismatches(plain, traced) == []
    for t in traced:
        assert t["correct"]
        assert sum(t["self_s"].values()) == pytest.approx(t["trial_s"], rel=1e-9)
        assert min(t["self_s"].values()) >= 0.0
        assert t["rounds"] >= t["reported_rounds"] > 0


def test_an_oracle_mismatch_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(harness, "compare_labelings", lambda got, want: oracles.OracleReport(False))
    code, _, result = _run(capsys, monkeypatch, "conn-reduce", "--trace", "0")
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_an_entry_point_that_is_never_called_fails_the_run(capsys, monkeypatch):
    # The harness never calls list_ranking for connectivity, so set-up would
    # silently swallow the whole trial.
    workload = dataclasses.replace(run.tiny("conn-reduce"), entry=(contraction, "list_ranking"))
    monkeypatch.setitem(run.WORKLOADS, "conn-reduce", workload)
    code = run.main(["--seconds", "0", "--seed", "3", "--workload", "conn-reduce", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_model_costs_do_not_depend_on_how_many_trials_fit():
    w = run.tiny("bc-pipeline")
    short, _ = run.measure(w, w, seed=4, seconds=0, trace=False)
    long, _ = run.measure(w, w, seed=4, seconds=2, trace=False)
    assert len(short) == w.cost_trials < len(long)
    costs = lambda trials: {k: v for k, v in run.end_to_end_metrics(w, trials, 1.0).items() if k in run.MODEL_COSTS}
    assert costs(short) == costs(long)


def test_a_model_cost_that_changes_under_tracing_fails_the_guard():
    a = {"spec_seed": 1, "correct": True, "reported_rounds": 5, **dict.fromkeys(run.MODEL_COSTS, 1)}
    assert run.trace_mismatches([a], [dict(a)]) == []
    assert run.trace_mismatches([a], [dict(a, rounds=2)]) == ["spec seed 1: rounds untraced 1 traced 2"]


def test_without_the_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-store", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_reports_model_cost_changes(tmp_path, capsys):
    w = run.tiny("rank-store")
    plain, _ = run.measure(w, w, seed=2, seconds=0, trace=False)
    record = {"workload": "rank-store", "trace": 0, "trials": plain, "traced_trials": [],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.end_to_end_metrics(w, plain, 1.0).items()}}
    changed = json.loads(json.dumps(record))
    changed["trials"][0]["rounds"] += 1
    base, new = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base.write_text(json.dumps(record) + "\n")
    new.write_text(json.dumps(changed) + "\n")
    assert compare.main([str(base), str(base)]) == 0
    assert f"rank-store: {len(plain)} shared trials, identical" in capsys.readouterr().out
    compare.main([str(base), str(new)])
    assert "1 model-cost changes" in capsys.readouterr().out
