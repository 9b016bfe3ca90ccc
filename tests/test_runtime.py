import io
import json

import numpy as np
import pytest

from ampcsim.runtime import (
    BudgetViolationError,
    ModelConfig,
    RecordSizeError,
    Simulator,
    assign_to_machines,
    item_coins,
    item_hashes,
    partition_to_machines,
)


def small_config(**kw):
    defaults = dict(n=16, m=16, epsilon=0.5, seed=7)
    defaults.update(kw)
    return ModelConfig.for_graph(**defaults)


def test_config_invariants():
    cfg = small_config()
    assert 0 < cfg.epsilon < 1
    assert cfg.space_S >= 2
    assert cfg.total_T == cfg.space_S * cfg.machines_P
    assert cfg.total_T >= cfg.input_size_N
    with pytest.raises(ValueError):
        ModelConfig.for_graph(n=10, m=10, epsilon=1.5)
    with pytest.raises(ValueError):
        ModelConfig(n=4, m=4, input_size_N=8, epsilon=0.5, space_S=2, machines_P=2, total_T=5)
    with pytest.raises(ValueError):
        ModelConfig(n=4, m=4, input_size_N=100, epsilon=0.5, space_S=2, machines_P=2, total_T=4)


def test_query_unique_and_absent():
    sim = Simulator(small_config(), initial=[("x", 7)])
    seen = {}

    def program(ctx):
        if ctx.machine_id == 0:
            seen["x"] = ctx.query("x")
            seen["missing"] = ctx.query("missing")

    sim.run_round(program)
    assert seen["x"] == 7
    assert seen["missing"] is None  # absent key is an empty response


def test_multivalue_indexed_access():
    sim = Simulator(small_config(), initial=[("x", "a"), ("x", "b"), ("x", "c")])
    out = {}

    def program(ctx):
        if ctx.machine_id == 0:
            out["vals"] = [ctx.query_indexed("x", j) for j in (1, 2, 3)]
            out["past_end"] = ctx.query_indexed("x", 4)
            out["all"] = ctx.query_all("x")

    sim.run_round(program)
    assert set(out["vals"]) == {"a", "b", "c"}
    assert out["past_end"] is None
    assert out["all"] == out["vals"]


def test_write_then_next_round_reads():
    sim = Simulator(small_config())

    def writer(ctx):
        if ctx.machine_id == 0:
            ctx.write("y", 1)

    sim.run_round(writer)
    got = {}
    sim.run_round(lambda ctx: got.setdefault(ctx.machine_id, ctx.query("y")))
    assert got[0] == 1


def test_multimap_accumulation_across_machines():
    sim = Simulator(small_config())

    def writer(ctx):
        if ctx.machine_id == 0:
            ctx.write("y", 1)
        elif ctx.machine_id == 1:
            ctx.write("y", 2)

    sim.run_round(writer)
    got = {}

    def reader(ctx):
        if ctx.machine_id == 0:
            got["vals"] = ctx.query_all("y")

    sim.run_round(reader)
    assert got["vals"] == [1, 2]  # canonical (machine id, sequence) order


def test_zero_writes_next_generation_empty():
    sim = Simulator(small_config(), initial=[("x", 7)])
    sim.run_round(lambda ctx: None)
    got = {}
    sim.run_round(lambda ctx: got.setdefault(ctx.machine_id, ctx.query("x")))
    assert got[0] is None
    assert len(sim.stores[1]) == 0


def test_identity_program_metrics():
    sim = Simulator(small_config(), initial=[("x", 7)])
    metrics = sim.run_round(lambda ctx: None)
    assert metrics.max_queries == 0
    assert metrics.max_writes == 0
    assert metrics.total_communication == 0
    assert metrics.violations == []


def test_budget_violation_names_machine():
    cfg = small_config(budget_slack=1.0, strict_budget=True)
    sim = Simulator(cfg)

    def greedy(ctx):
        if ctx.machine_id == 0:
            for _ in range(cfg.space_S + 1):
                ctx.query("k")

    with pytest.raises(BudgetViolationError) as err:
        sim.run_round(greedy)
    assert err.value.violations[0][0] == 0
    assert "machine 0" in str(err.value)


def test_budget_violation_recorded_when_not_strict():
    cfg = small_config(budget_slack=1.0, strict_budget=False)
    sim = Simulator(cfg)

    def greedy(ctx):
        if ctx.machine_id == 0:
            for _ in range(cfg.space_S + 1):
                ctx.query("k")

    metrics = sim.run_round(greedy)
    assert metrics.violations == [0]
    assert sim.violation_count() == 1


def test_chain_following_in_one_round():
    # One machine computes g^k(y) via k sequential, adaptive queries.
    g = {i: (i * 3 + 1) % 50 for i in range(50)}
    sim = Simulator(small_config(), initial=list(g.items()))
    k = 9
    out = {}

    def chase(ctx):
        if ctx.machine_id != 0:
            return
        x = 4
        for _ in range(k):
            x = ctx.query(x)
        out["value"] = x
        out["queries"] = ctx.query_count

    sim.run_round(chase)
    expect = 4
    for _ in range(k):
        expect = g[expect]
    assert out["value"] == expect
    assert out["queries"] == k
    assert sim.metrics[-1].max_queries == k


def test_generational_immutability_double_query():
    sim = Simulator(small_config(), initial=[("x", 1)])
    out = {}

    def program(ctx):
        if ctx.machine_id == 0:
            first = ctx.query("x")
            ctx.write("x", 99)
            second = ctx.query("x")
            out["pair"] = (first, second)

    sim.run_round(program)
    assert out["pair"] == (1, 1)


def test_metrics_conservation():
    sim = Simulator(small_config(), initial=[(i, i) for i in range(20)])
    calls = {"q": 0, "w": 0}

    def program(ctx):
        for i in range(ctx.machine_id % 3):
            ctx.query(i)
            calls["q"] += 1
        if ctx.machine_id % 2 == 0:
            ctx.write(("out", ctx.machine_id), 1)
            calls["w"] += 1

    metrics = sim.run_round(program)
    assert metrics.total_communication == calls["q"] + calls["w"]
    assert metrics.max_queries == max(metrics.queries_per_machine)


def test_determinism_bit_identical():
    def run():
        sim = Simulator(small_config(seed=123), initial=[(i, i * i) for i in range(10)])

        def program(ctx):
            draw = int(ctx.rng.integers(0, 100))
            ctx.write(("r", ctx.machine_id), draw)
            ctx.query(ctx.machine_id)

        for _ in range(3):
            sim.run_round(program)
        buf = io.StringIO()
        sim.export_metrics(buf)
        entries = [sorted(store.items()) for store in sim.stores]
        return buf.getvalue(), entries

    first, second = run(), run()
    assert first == second


def test_record_size_limit():
    sim = Simulator(small_config())

    def program(ctx):
        if ctx.machine_id == 0:
            ctx.write("big", (1, 2, 3, 4, 5))

    with pytest.raises(RecordSizeError):
        sim.run_round(program)


def test_charge_accounting():
    cfg = small_config()
    sim = Simulator(cfg)
    sim.charge(rounds=2, communication=100, label="sort")
    assert len(sim.metrics) == 2
    assert sum(m.total_communication for m in sim.metrics) == 100
    assert all(m.charged for m in sim.metrics)
    assert sim.adaptive_rounds() == 0
    assert sim.total_rounds() == 2


def test_metrics_export_schema():
    sim = Simulator(small_config())
    sim.run_round(lambda ctx: None)
    buf = io.StringIO()
    sim.export_metrics(buf)
    record = json.loads(buf.getvalue().splitlines()[0])
    assert set(record) == {"round", "max_queries", "max_writes", "total_communication", "machines"}


def test_assign_single_machine():
    cfg = ModelConfig(n=4, m=0, input_size_N=4, epsilon=0.5, space_S=4, machines_P=1, total_T=4)
    assert assign_to_machines([1, 2, 3], cfg, 0) == {1: 0, 2: 0, 3: 0}


def test_assign_deterministic():
    cfg = small_config()
    items = list(range(200))
    assert assign_to_machines(items, cfg, 3) == assign_to_machines(items, cfg, 3)
    # Different rounds shuffle differently.
    assert assign_to_machines(items, cfg, 3) != assign_to_machines(items, cfg, 4)


def test_assign_load_within_three_times_mean():
    items = list(range(10**4))
    p = 16
    mean = len(items) / p
    for seed in range(100):
        cfg = ModelConfig(
            n=10**4, m=0, input_size_N=10**4, epsilon=0.5,
            space_S=625, machines_P=p, total_T=10**4, seed=seed,
        )
        parts = partition_to_machines(items, cfg, 0)
        assert len(parts) == p
        assert max(len(part) for part in parts) <= 3 * mean


def test_item_coins_match_scalar():
    import ampcsim.runtime as rt

    coins = item_coins(99, 5, np.arange(64))
    for i in range(64):
        assert coins[i] == pytest.approx(rt.item_coin(99, 5, i), abs=0)
    # Sparse, large ids and a seed standing for a negative value, bit for
    # bit, and the machine index taken modulo P.
    ids = np.array([0, 3, 2**40 + 3, 2**62 + 11, 123456789])
    seed = -(1 << 63) + 5
    hashes = item_hashes(seed, 0x51, ids)
    assert hashes.dtype == np.uint64
    assert hashes.tolist() == [rt.item_hash(seed, 0x51, int(i)) for i in ids]
    assert item_coins(seed, 0x51, ids).tolist() == [rt.item_coin(seed, 0x51, int(i)) for i in ids]
    for p in (356, 252):
        assert (hashes % np.uint64(p)).tolist() == [rt.item_hash(seed, 0x51, int(i)) % p for i in ids]
