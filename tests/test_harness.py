import json

import pytest

from ampcsim import runtime
from ampcsim.cli import main
from ampcsim.graphs import Graph
from ampcsim.harness import (
    ContentionReport,
    ExperimentSpec,
    contention_sim,
    contention_weights,
    run_experiment,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="two-cycle", trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(algorithm="mis", epsilon=1.0)
    # The generators' rules, checked before any trial runs.
    with pytest.raises(ValueError, match="even n"):
        ExperimentSpec(algorithm="two-cycle", n=5, pieces=2)
    with pytest.raises(ValueError, match="trees"):
        ExperimentSpec(algorithm="tree-ops", n=5, trees=9)
    with pytest.raises(ValueError, match="infeasible"):
        ExperimentSpec(algorithm="msf", n=10, m=46)
    with pytest.raises(ValueError, match="infeasible"):
        ExperimentSpec(algorithm="mis", n=10, m=-1)
    assert ExperimentSpec(algorithm="two-cycle", n=5, pieces=1).n == 5
    assert ExperimentSpec(algorithm="msf", n=10, m=45).m == 45


def test_two_cycle_experiment_records():
    spec = ExperimentSpec(algorithm="two-cycle", n=128, pieces=2, trials=10, seed=3)
    report = run_experiment(spec)
    assert len(report.records) == 10
    assert report.all_correct
    assert report.summary["correct"] == 10
    for record in report.records:
        assert record.rounds >= 1
        payload = json.loads(record.json_line())
        assert payload["seed"] == record.seed
        assert "wall_ms" not in payload


def test_reports_byte_identical(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        spec = ExperimentSpec(
            algorithm="connectivity", n=200, m=500, trials=3, seed=9, out=str(out)
        )
        report = run_experiment(spec)
        assert report.all_correct
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes()  # non-empty


SMALL_CASES = [
    ExperimentSpec(algorithm="two-cycle", n=64, pieces=1, trials=2, seed=1),
    ExperimentSpec(algorithm="mis", n=80, m=200, trials=2, seed=1),
    ExperimentSpec(algorithm="connectivity", n=100, m=200, trials=2, seed=1),
    ExperimentSpec(algorithm="msf", n=80, m=200, trials=2, seed=1),
    ExperimentSpec(algorithm="spanning-forest", n=80, m=150, trials=2, seed=1),
    ExperimentSpec(algorithm="forest-conn", n=90, trees=3, trials=2, seed=1),
    ExperimentSpec(algorithm="list-rank", n=120, trials=2, seed=1),
    ExperimentSpec(algorithm="tree-ops", n=90, trees=2, trials=2, seed=1),
    ExperimentSpec(algorithm="bridges", n=60, m=90, trials=2, seed=1),
    ExperimentSpec(algorithm="2ecc", n=60, m=90, trials=2, seed=1),
]


def test_each_algorithm_small_run():
    for spec in SMALL_CASES:
        report = run_experiment(spec)
        assert report.all_correct, spec.algorithm
        assert report.summary["violations"] == 0, spec.algorithm


@pytest.mark.parametrize("spec", SMALL_CASES, ids=lambda spec: spec.algorithm)
def test_reported_costs_cover_every_simulator(spec, monkeypatch):
    # Count outside-in: every Simulator a run constructs must be reported.
    built = []
    init = runtime.Simulator.__init__

    def register(sim, *args, **kwargs):
        init(sim, *args, **kwargs)
        built.append(sim)

    monkeypatch.setattr(runtime.Simulator, "__init__", register)
    records = run_experiment(spec).records
    assert built
    assert sum(r.rounds for r in records) == sum(s.total_rounds() for s in built)
    assert sum(r.total_communication for r in records) == sum(
        s.total_communication() for s in built
    )
    assert max(r.max_queries_per_machine for r in records) == max(
        s.max_queries_per_machine() for s in built
    )


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(algorithm="connectivity", n=2000, m=6000, seed=7),
        ExperimentSpec(algorithm="spanning-forest", n=2000, m=6000, seed=7),
        ExperimentSpec(algorithm="list-rank", n=2000, seed=7),
        ExperimentSpec(algorithm="2ecc", n=500, m=1500, seed=7),
        ExperimentSpec(algorithm="mis", n=500, m=1500, seed=7),
    ],
    ids=lambda spec: spec.algorithm,
)
def test_trials_never_build_edge_tuples(spec, monkeypatch):
    # The whole trial, generation and oracle check included, stays on arrays.
    def refuse(graph):
        raise AssertionError("the tuple view of the edges was built")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    assert run_experiment(spec).all_correct


def test_contention_uniform_expectation():
    total, bins = 4096, 64
    report = contention_sim(total, bins, "uniform", trials=50, seed=0)
    space = total // bins
    assert report.space == space
    # Loads sum to the total in every trial; the mean per bin is exactly S.
    assert all(load >= space for load in report.max_loads)
    assert min(report.max_loads) < 2 * space


def test_contention_single_heavy_ball():
    total, bins = 1024, 32
    report = contention_sim(total, bins, "single", trials=20, seed=1)
    assert max(report.max_loads) >= bins  # the heavy ball dominates its bin


def test_contention_profiles_and_errors():
    assert sum(contention_weights(100, 10, "uniform")) == 100
    assert sum(contention_weights(100, 10, "adversarial")) == 100
    assert sum(contention_weights(100, 10, "single")) == 100
    with pytest.raises(ValueError):
        contention_sim(100, 10, [50, 50], trials=1, seed=0)  # weight > bins
    with pytest.raises(ValueError):
        contention_sim(100, 10, [1] * 99, trials=1, seed=0)  # wrong total
    with pytest.raises(ValueError):
        contention_weights(100, 10, "bogus")


def test_cli_gen_and_experiment(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    rc = main(["gen", "--kind", "cycles", "--n", "32", "--pieces", "2",
               "--seed", "5", "--out", str(graph_path)])
    assert rc == 0
    assert graph_path.read_text().startswith("32 32")

    out = tmp_path / "run.jsonl"
    rc = main(["two-cycle", "--n", "64", "--pieces", "2", "--trials", "2",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert (tmp_path / "run.jsonl.summary.csv").exists()
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["correct"] == 2


def test_cli_validation_error_exit_code():
    rc = main(["mis", "--trials", "0"])
    assert rc == 2


def test_cli_contention(capsys):
    rc = main(["contention", "--balls", "1024", "--bins", "32",
               "--profile", "uniform", "--trials", "5", "--seed", "1"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["trials"] == 5


def test_with_leader_retries():
    from ampcsim.errors import LeaderContractionError
    from ampcsim.harness import with_leader_retries

    calls = []

    def flaky(seed):
        calls.append(seed)
        if len(calls) < 3:
            raise LeaderContractionError("no leader in reach")
        return seed

    result = with_leader_retries(flaky, seed=5, attempts=5)
    assert len(calls) == 3
    assert result == calls[-1]
    assert len(set(calls)) == 3  # fresh seed per attempt

    def hopeless(seed):
        raise LeaderContractionError("never")

    with pytest.raises(LeaderContractionError):
        with_leader_retries(hopeless, seed=5, attempts=2)


def test_contention_mean_load_is_space():
    import numpy as np

    total, bins = 2048, 32
    report = contention_sim(total, bins, "uniform", trials=10, seed=3)
    # Conservation: loads sum to the total, so the mean per bin is S.
    assert report.space == total // bins
    assert all(load * bins >= total for load in [max(report.max_loads)] )
    # Single heavy ball: max load at least the ball weight, and the
    # configuration keeps bins <= space so the ball alone fits a budget.
    single = contention_sim(total, bins, "single", trials=10, seed=3)
    assert bins <= single.space
    assert min(single.max_loads) >= bins


# Model costs of a connectivity spec in which both the vertex-shrink
# reduction and the exploration loop run; a refactor must not move them.
CONNECTIVITY_GOLDEN = [
    '{"algorithm": "connectivity", "correct": true, "detail": {"iterations": 1}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 32, "n": 2000, "rounds": 11, "seed": 6218622741583987683, "total_communication": 21227, "trial": 0, "violations": 0}',
    '{"algorithm": "connectivity", "correct": true, "detail": {"iterations": 1}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 32, "n": 2000, "rounds": 11, "seed": 4232062854197151812, "total_communication": 20622, "trial": 1, "violations": 0}',
    '{"algorithm": "connectivity", "correct": true, "detail": {"iterations": 1}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 32, "n": 2000, "rounds": 11, "seed": 6257916401269190689, "total_communication": 21500, "trial": 2, "violations": 0}',
]


def test_connectivity_model_costs_golden():
    spec = ExperimentSpec(algorithm="connectivity", n=2000, m=6000, trials=3, seed=7)
    assert run_experiment(spec).json_lines().splitlines() == CONNECTIVITY_GOLDEN


# The weighted contraction (Boruvka shrink and Prim exploration) and the
# bc pipeline (spanning forest, tree annotations, connectivity) at the same
# spec, pinned as tightly as connectivity.
MSF_GOLDEN = [
    '{"algorithm": "msf", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 38, "seed": 6218622741583987683, "total_communication": 90059, "trial": 0, "violations": 0}',
    '{"algorithm": "msf", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 36, "seed": 4232062854197151812, "total_communication": 91985, "trial": 1, "violations": 0}',
    '{"algorithm": "msf", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 38, "seed": 6257916401269190689, "total_communication": 94381, "trial": 2, "violations": 0}',
]

TWO_ECC_GOLDEN = [
    '{"algorithm": "2ecc", "correct": true, "detail": {"bridges": 19}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 93, "n": 2000, "rounds": 80, "seed": 6218622741583987683, "total_communication": 173401, "trial": 0, "violations": 0}',
    '{"algorithm": "2ecc", "correct": true, "detail": {"bridges": 40}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 94, "n": 2000, "rounds": 72, "seed": 4232062854197151812, "total_communication": 168907, "trial": 1, "violations": 0}',
    '{"algorithm": "2ecc", "correct": true, "detail": {"bridges": 23}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 97, "n": 2000, "rounds": 71, "seed": 6257916401269190689, "total_communication": 165513, "trial": 2, "violations": 0}',
]

# The spanning forest as msf runs it on seeded weights, and bridges from the
# bc labeling without articulation points.
SPANNING_FOREST_GOLDEN = [
    '{"algorithm": "spanning-forest", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 44, "seed": 6218622741583987683, "total_communication": 95659, "trial": 0, "violations": 0}',
    '{"algorithm": "spanning-forest", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 38, "seed": 4232062854197151812, "total_communication": 93200, "trial": 1, "violations": 0}',
    '{"algorithm": "spanning-forest", "correct": true, "detail": {"iterations": 1}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 36, "n": 2000, "rounds": 35, "seed": 6257916401269190689, "total_communication": 87915, "trial": 2, "violations": 0}',
]

BRIDGES_GOLDEN = [
    '{"algorithm": "bridges", "correct": true, "detail": {"bridges": 19}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 93, "n": 2000, "rounds": 69, "seed": 6218622741583987683, "total_communication": 152371, "trial": 0, "violations": 0}',
    '{"algorithm": "bridges", "correct": true, "detail": {"bridges": 40}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 94, "n": 2000, "rounds": 61, "seed": 4232062854197151812, "total_communication": 148939, "trial": 1, "violations": 0}',
    '{"algorithm": "bridges", "correct": true, "detail": {"bridges": 23}, "epsilon": 0.5, "m": 6000, "max_queries_per_machine": 97, "n": 2000, "rounds": 60, "seed": 6257916401269190689, "total_communication": 144343, "trial": 2, "violations": 0}',
]


# The chain layer (sample-and-traverse on cycles and lists) behind 2-cycle,
# forest connectivity, list ranking and tree rooting, pinned the same way.
TWO_CYCLE_GOLDEN = [
    '{"algorithm": "two-cycle", "correct": true, "detail": {"iterations": 2, "residual_vertices": 49}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 150, "n": 2000, "rounds": 3, "seed": 6218622741583987683, "total_communication": 4635, "trial": 0, "violations": 0}',
    '{"algorithm": "two-cycle", "correct": true, "detail": {"iterations": 2, "residual_vertices": 45}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 118, "n": 2000, "rounds": 3, "seed": 4232062854197151812, "total_communication": 4621, "trial": 1, "violations": 0}',
    '{"algorithm": "two-cycle", "correct": true, "detail": {"iterations": 2, "residual_vertices": 53}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 120, "n": 2000, "rounds": 3, "seed": 6257916401269190689, "total_communication": 4671, "trial": 2, "violations": 0}',
]

FOREST_CONN_GOLDEN = [
    '{"algorithm": "forest-conn", "correct": true, "detail": {"components": 3}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 159, "n": 2000, "rounds": 8, "seed": 6218622741583987683, "total_communication": 21651, "trial": 0, "violations": 0}',
    '{"algorithm": "forest-conn", "correct": true, "detail": {"components": 3}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 180, "n": 2000, "rounds": 8, "seed": 4232062854197151812, "total_communication": 21683, "trial": 1, "violations": 0}',
    '{"algorithm": "forest-conn", "correct": true, "detail": {"components": 3}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 144, "n": 2000, "rounds": 8, "seed": 6257916401269190689, "total_communication": 21788, "trial": 2, "violations": 0}',
]

LIST_RANK_GOLDEN = [
    '{"algorithm": "list-rank", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 82, "n": 2000, "rounds": 5, "seed": 6218622741583987683, "total_communication": 6921, "trial": 0, "violations": 0}',
    '{"algorithm": "list-rank", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 89, "n": 2000, "rounds": 5, "seed": 4232062854197151812, "total_communication": 6994, "trial": 1, "violations": 0}',
    '{"algorithm": "list-rank", "correct": true, "detail": {"iterations": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 99, "n": 2000, "rounds": 5, "seed": 6257916401269190689, "total_communication": 6959, "trial": 2, "violations": 0}',
]

TREE_OPS_GOLDEN = [
    '{"algorithm": "tree-ops", "correct": true, "detail": {"trees": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 192, "n": 2000, "rounds": 21, "seed": 6218622741583987683, "total_communication": 51501, "trial": 0, "violations": 0}',
    '{"algorithm": "tree-ops", "correct": true, "detail": {"trees": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 194, "n": 2000, "rounds": 19, "seed": 4232062854197151812, "total_communication": 51458, "trial": 1, "violations": 0}',
    '{"algorithm": "tree-ops", "correct": true, "detail": {"trees": 2}, "epsilon": 0.5, "m": 0, "max_queries_per_machine": 163, "n": 2000, "rounds": 21, "seed": 6257916401269190689, "total_communication": 51656, "trial": 2, "violations": 0}',
]

GOLDEN_SPECS = {
    "msf": dict(m=6000),
    "2ecc": dict(m=6000),
    "two-cycle": dict(pieces=2),
    "forest-conn": dict(trees=3),
    "list-rank": dict(),
    "tree-ops": dict(trees=2),
    "spanning-forest": dict(m=6000),
    "bridges": dict(m=6000),
}


@pytest.mark.parametrize(
    "algorithm, golden",
    [
        ("msf", MSF_GOLDEN),
        ("2ecc", TWO_ECC_GOLDEN),
        ("two-cycle", TWO_CYCLE_GOLDEN),
        ("forest-conn", FOREST_CONN_GOLDEN),
        ("list-rank", LIST_RANK_GOLDEN),
        ("tree-ops", TREE_OPS_GOLDEN),
        ("spanning-forest", SPANNING_FOREST_GOLDEN),
        ("bridges", BRIDGES_GOLDEN),
    ],
)
def test_weighted_and_bc_model_costs_golden(algorithm, golden):
    spec = ExperimentSpec(algorithm=algorithm, n=2000, trials=3, seed=7, **GOLDEN_SPECS[algorithm])
    assert run_experiment(spec).json_lines().splitlines() == golden


def test_spec_rejects_edge_count_for_non_graph_algorithms():
    for algorithm in ("two-cycle", "forest-conn", "list-rank", "tree-ops"):
        with pytest.raises(ValueError, match="takes no edge count"):
            ExperimentSpec(algorithm=algorithm, n=64, m=100)
        assert ExperimentSpec(algorithm=algorithm, n=64).m == 0
    assert ExperimentSpec(algorithm="connectivity", n=64, m=100).m == 100


def test_cli_accepts_m_only_for_graph_algorithms(capsys):
    for algorithm in ("two-cycle", "forest-conn", "list-rank", "tree-ops"):
        with pytest.raises(SystemExit) as exc:
            main([algorithm, "--n", "64", "--m", "100"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --m 100" in capsys.readouterr().err
    assert main(["connectivity", "--n", "64", "--m", "100"]) == 0


def test_cli_strict_budget_fails_on_violation(capsys):
    rc = main(["2ecc", "--n", "256", "--m", "500", "--budget-slack", "2", "--strict-budget"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: budget violation")


@pytest.mark.parametrize(
    "argv",
    [
        ["forest-conn", "--n", "10", "--trees", "0"],
        ["tree-ops", "--n", "5", "--trees", "9"],
        ["two-cycle", "--n", "5", "--pieces", "2"],
        ["connectivity", "--n", "10", "--m", "1000"],
        ["connectivity", "--n", "2"],  # the default m = 3n exceeds n(n-1)/2
        ["gen", "--kind", "forest", "--n", "5", "--trees", "9", "--out", "f"],
    ],
)
def test_cli_input_error_is_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["connectivity", "--n", "64", "--space-multiplier", "0.5"],
        ["connectivity", "--n", "64", "--space-multiplier", "nan"],
        ["list-rank", "--budget-slack", "0.5"],
        ["mis", "--epsilon", "1.5"],
        ["contention", "--bins", "0"],
        ["contention", "--trials", "0"],
        ["contention", "--balls", "10", "--bins", "20"],
    ],
)
def test_cli_bad_parameter_is_one_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "total, bins, trials, message",
    [
        (100, 0, 5, "at least one bin"),
        (100, 10, 0, "one trial"),
        (10, 20, 5, "S = 0"),
    ],
)
def test_contention_rejects_empty_bins_trials_and_space(total, bins, trials, message):
    with pytest.raises(ValueError, match=message):
        contention_sim(total, bins, "uniform", trials=trials, seed=0)


def test_spec_checks_the_model_parameters_of_its_first_trial():
    with pytest.raises(ValueError, match="space_multiplier"):
        ExperimentSpec(algorithm="connectivity", n=64, space_multiplier=0.5)
    # Trial seeds are hashed, so any integer spec seed is valid.
    assert ExperimentSpec(algorithm="list-rank", n=64, seed=-(1 << 70)).seed == -(1 << 70)


def test_cli_model_error_is_one_line(capsys):
    rc = main(["2ecc", "--n", "256", "--m", "500", "--budget-slack", "1"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
