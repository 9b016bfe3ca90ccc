import ast
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ampcsim.runtime import (
    NONE,
    ArrayGeneration,
    BudgetViolationError,
    ModelConfig,
    RecordSizeError,
    Simulator,
    item_coins,
    item_hash,
    item_hashes,
)


def small_config(**kw):
    defaults = dict(n=16, m=16, epsilon=0.5, seed=7)
    defaults.update(kw)
    return ModelConfig(**defaults)


def scalars(keys, values):
    """An initial generation of one scalar value per key."""
    return ArrayGeneration(keys, [values])


def test_config_invariants():
    cfg = small_config()
    assert 0 < cfg.epsilon < 1
    assert cfg.space_S >= 2
    assert cfg.total_T == cfg.space_S * cfg.machines_P
    assert cfg.total_T >= cfg.input_size_N
    with pytest.raises(ValueError):
        ModelConfig(n=10, m=10, epsilon=1.5)
    for bad in (dict(n=-5, m=0), dict(n=5, m=-1)):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelConfig(**bad)
    # NumPy integers are integers; float sizes and seeds are not.
    assert ModelConfig(n=np.int64(10), m=np.int32(3), seed=np.uint64(5)).space_S == 4
    # The sizes are derived; none of them can be passed in.
    for derived in ("input_size_N", "space_S", "machines_P", "total_T"):
        with pytest.raises(TypeError):
            ModelConfig(n=4, m=4, **{derived: 8})


@pytest.mark.parametrize(
    "bad, error",
    [
        (dict(n=2.5), TypeError),
        (dict(n=True), TypeError),
        (dict(m=np.bool_(True)), TypeError),
        (dict(seed=1.5), TypeError),
        (dict(space_multiplier=math.inf), ValueError),
        (dict(budget_slack=math.nan), ValueError),
        (dict(leader_constant=-1.0), ValueError),
        (dict(leader_constant=0.0), ValueError),
        (dict(leader_constant=math.inf), ValueError),
    ],
)
def test_config_rejects_what_fails_later(bad, error):
    with pytest.raises(error, match=next(iter(bad))):
        small_config(**bad)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 10**7),
    m=st.integers(0, 10**7),
    epsilon=st.floats(0.01, 0.99),
    multiplier=st.floats(1.0, 8.0),
    slack=st.floats(1.0, 32.0),
    resized=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
)
def test_config_sizes_follow_from_the_init_fields(n, m, epsilon, multiplier, slack, resized):
    def check(cfg, n, m):
        assert cfg.space_S == max(2, math.ceil(max(n, 2) ** epsilon))
        assert cfg.input_size_N == max(1, n + m)
        assert cfg.machines_P == max(1, math.ceil(multiplier * cfg.input_size_N / cfg.space_S))
        assert cfg.total_T == cfg.space_S * cfg.machines_P >= cfg.input_size_N
        assert cfg.budget_limit == math.floor(slack * cfg.space_S)

    cfg = ModelConfig(n=n, m=m, epsilon=epsilon, space_multiplier=multiplier, budget_slack=slack, seed=3)
    check(cfg, n, m)
    # Replacing the sizes recomputes everything derived from them and keeps
    # every other parameter, as a sub-computation's config does.
    sub = dataclasses.replace(cfg, n=resized[0], m=resized[1])
    check(sub, *resized)
    assert (sub.epsilon, sub.seed, sub.space_multiplier, sub.budget_slack) == (epsilon, 3, multiplier, slack)


def test_query_unique_and_absent():
    sim = Simulator(small_config(), initial=scalars([1], [7]))
    seen = {}

    def program(ctx):
        if ctx.machine_id == 0:
            seen["x"] = ctx.query(1)
            seen["missing"] = ctx.query(2)

    sim.run_round(program)
    assert seen["x"] == 7
    assert seen["missing"] is None  # absent key is an empty response


def test_multivalue_indexed_access():
    sim = Simulator(small_config(), initial=scalars([1, 1, 1], [10, 20, 30]))
    out = {}

    def program(ctx):
        if ctx.machine_id == 0:
            out["vals"] = [ctx.query_indexed(1, j) for j in (1, 2, 3)]
            out["past_end"] = ctx.query_indexed(1, 4)

    metrics = sim.run_round(program)
    assert set(out["vals"]) == {10, 20, 30}
    assert out["past_end"] is None
    # Reading every value and the empty response past them costs k + 1.
    assert metrics.queries_per_machine[0] == 4


def test_write_then_next_round_reads():
    sim = Simulator(small_config())

    def writer(ctx):
        if ctx.machine_id == 0:
            ctx.write(2, 1)

    sim.run_round(writer)
    got = {}
    sim.run_round(lambda ctx: got.setdefault(ctx.machine_id, ctx.query(2)))
    assert got[0] == 1


def test_multimap_accumulation_across_machines():
    sim = Simulator(small_config())

    def writer(ctx):
        if ctx.machine_id == 0:
            ctx.write(2, 1)
        elif ctx.machine_id == 1:
            ctx.write(2, 2)

    sim.run_round(writer)
    got = {}

    def reader(ctx):
        if ctx.machine_id == 0:
            got["vals"] = [ctx.query_indexed(2, j) for j in (1, 2, 3)]

    sim.run_round(reader)
    assert got["vals"] == [1, 2, None]  # canonical (machine id, sequence) order


def test_zero_writes_next_generation_empty():
    sim = Simulator(small_config(), initial=scalars([1], [7]))
    sim.run_round(lambda ctx: None)
    got = {}
    sim.run_round(lambda ctx: got.setdefault(ctx.machine_id, ctx.query(1)))
    assert got[0] is None
    assert len(sim.stores[1]) == 0


def test_identity_program_metrics():
    sim = Simulator(small_config(), initial=scalars([1], [7]))
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
                ctx.query(3)

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
                ctx.query(3)

    metrics = sim.run_round(greedy)
    assert metrics.violations == [0]
    assert sim.violation_count() == 1


def test_chain_following_in_one_round():
    # One machine computes g^k(y) via k sequential, adaptive queries.
    g = {i: (i * 3 + 1) % 50 for i in range(50)}
    sim = Simulator(small_config(), initial=scalars(list(g), list(g.values())))
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
    sim = Simulator(small_config(), initial=scalars([1], [1]))
    out = {}

    def program(ctx):
        if ctx.machine_id == 0:
            first = ctx.query(1)
            ctx.write(1, 99)
            second = ctx.query(1)
            out["pair"] = (first, second)

    sim.run_round(program)
    assert out["pair"] == (1, 1)


def test_metrics_conservation():
    sim = Simulator(small_config(), initial=scalars(range(20), range(20)))
    calls = {"q": 0, "w": 0}

    def program(ctx):
        for i in range(ctx.machine_id % 3):
            ctx.query(i)
            calls["q"] += 1
        if ctx.machine_id % 2 == 0:
            ctx.write(100 + ctx.machine_id, 1)
            calls["w"] += 1

    metrics = sim.run_round(program)
    assert metrics.total_communication == calls["q"] + calls["w"]
    assert metrics.max_queries == max(metrics.queries_per_machine)


def test_determinism_bit_identical():
    def run():
        sim = Simulator(small_config(seed=123), initial=scalars(range(10), [i * i for i in range(10)]))

        def program(ctx):
            draw = item_hash(123, ctx.round, ctx.machine_id) % 100
            ctx.write(100 + ctx.machine_id, draw)
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


@pytest.mark.parametrize("rounds, communication", [(1, -5), (0, 10), (-3, 10)])
def test_charge_rejects_no_rounds_and_negative_communication(rounds, communication):
    sim = Simulator(small_config())
    with pytest.raises(ValueError, match="rounds >= 1 and communication >= 0"):
        sim.charge(rounds, communication, "sort")
    assert sim.metrics == []


def test_charge_needs_a_phase_label():
    sim = Simulator(small_config())
    with pytest.raises(ValueError, match="nonempty phase label"):
        sim.charge(1, 10, "")
    with pytest.raises(TypeError):
        sim.charge(1, 10)
    assert sim.metrics == []


def test_metrics_export_schema():
    sim = Simulator(small_config())
    sim.run_round(lambda ctx: None)
    buf = io.StringIO()
    sim.export_metrics(buf)
    record = json.loads(buf.getvalue().splitlines()[0])
    assert set(record) == {"round", "max_queries", "max_writes", "total_communication", "machines"}


def empty_round(sim):
    with sim.batch_round():
        pass


def test_assign_single_machine():
    cfg = ModelConfig(n=1, m=0)
    assert cfg.machines_P == 1
    assert Simulator(cfg).machines([1, 2, 3]).tolist() == [0, 0, 0]


def test_assign_deterministic():
    cfg = small_config()
    items = np.arange(200)
    sim = Simulator(cfg)
    before = sim.machines(items)
    assert np.array_equal(before, Simulator(cfg).machines(items))
    # Different rounds shuffle differently.
    empty_round(sim)
    assert not np.array_equal(before, sim.machines(items))


def test_assign_load_within_three_times_mean():
    items = np.arange(10**4)
    p = 16
    mean = len(items) / p
    for seed in range(100):
        cfg = ModelConfig(n=256, m=0, seed=seed)
        assert cfg.machines_P == p
        loads = np.bincount(Simulator(cfg).machines(items), minlength=p)
        assert len(loads) == p
        assert loads.max() <= 3 * mean


def test_machines_and_coins_advance_with_sealed_rounds_only():
    cfg = small_config()
    ids = np.array([0, 5, 2**40 + 3, 17])
    sim, twin = Simulator(cfg), Simulator(cfg)
    for _ in range(3):
        r = sim.round_index
        machines, coins = sim.machines(ids), sim.coins(0x1D, ids)
        # The next round's machines; coins keyed on the last sealed round.
        assert machines.tolist() == (item_hashes(cfg.seed, ((r + 1) << 8) | 0x51, ids) % cfg.machines_P).tolist()
        assert coins.tolist() == item_coins(cfg.seed, (r << 8) | 0x1D, ids).tolist()
        assert np.array_equal(machines, twin.machines(ids))
        assert np.array_equal(coins, twin.coins(0x1D, ids))
        # A charged round seals nothing and advances neither.
        sim.charge(2, 40, "sort")
        assert np.array_equal(machines, sim.machines(ids))
        assert np.array_equal(coins, sim.coins(0x1D, ids))
        empty_round(sim)
        empty_round(twin)
        assert not np.array_equal(machines, sim.machines(ids))
        assert not np.array_equal(coins, sim.coins(0x1D, ids))


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


def test_array_generation_reads_like_a_dict_generation():
    # Keys out of order, a repeated key and None values; the expectations
    # are what a dict from keys to value lists returns.
    records = [(5, (1, None)), (2, (3, 4)), (5, (6, 7)), (9, (None, 0))]
    keys = [k for k, _ in records]
    columns = [[NONE if v[i] is None else v[i] for _, v in records] for i in range(2)]
    as_array = Simulator(small_config(), initial=ArrayGeneration(keys, columns)).store
    first = {2: (3, 4), 5: (1, None), 9: (None, 0), 4: None, -1: None, "x": None, 2**70: None}
    assert {key: as_array.get(key) for key in first} == first
    indexed = {key: [None, value, None, None] for key, value in first.items()}
    indexed[5] = [None, (1, None), (6, 7), None]
    assert {key: [as_array.get_indexed(key, j) for j in range(4)] for key in first} == indexed
    assert list(as_array.items()) == [(2, (3, 4)), (5, (1, None)), (5, (6, 7)), (9, (None, 0))]
    assert len(as_array) == 4
    scalar = ArrayGeneration([3, 1], [[NONE, 8]])
    assert list(scalar.items()) == [(1, 8), (3, None)]
    with pytest.raises(TypeError):
        ArrayGeneration([1], [[0.5]])
    right, left = as_array.gather(np.array([9, 4, 2]))
    assert right.tolist() == [NONE, NONE, 3] and left.tolist() == [0, NONE, 4]


def test_batch_round_reads_writes_and_seals():
    sim = Simulator(small_config(), initial=ArrayGeneration(np.arange(6), [np.arange(6) * 10]))
    with sim.batch_round() as rnd:
        (got,) = rnd.gather(None, np.array([4, 1, 4]), np.array([0, 2, 2]))
        rnd.write_many(np.array([7, 3]), [got[:2], np.array([1, 2])], np.array([1, 0]))
        rnd.write_many(np.array([3]), [np.array([5]), np.array([NONE])], np.array([0]))
    assert got.tolist() == [40, 10, 40]
    metrics = sim.metrics[-1]
    assert metrics.queries_per_machine[:3] == [1, 0, 2] and metrics.writes_per_machine[:3] == [2, 1, 0]
    assert metrics.total_communication == 6
    assert list(sim.store.items()) == [(3, (10, 2)), (3, (5, None)), (7, (40, 1))]
    # Older generations stay readable by closure rounds.
    seen = {}
    sim.run_round(lambda ctx: seen.setdefault(ctx.machine_id, (ctx.query(3), ctx.query(5, generation=0))))
    assert seen[0] == ((10, 2), 50)


def test_batch_round_walk_hand_trace():
    # Generation 0 links 0 -> 1 -> 2 -> 3 -> 4 -> 5 -> NONE, weight 10 * key;
    # generation 1 links every key to 0, weight 1.
    chain = ArrayGeneration(np.arange(6), [np.array([1, 2, 3, 4, 5, NONE]), np.arange(6) * 10])
    sim = Simulator(small_config(), initial=chain)
    with sim.batch_round() as rnd:
        rnd.write_many(np.arange(6), [np.zeros(6, dtype=np.int64), np.ones(6, dtype=np.int64)], np.zeros(6, dtype=np.int64))

    def stop(walkers, positions):
        return np.isin(positions, [2, 5])

    # The default generation is the latest sealed one. The walker on the
    # stop at 5 reads nothing.
    with sim.batch_round() as rnd:
        walkers, positions, records = next(rnd.walk(None, np.array([3, 5]), np.array([0, 1]), 0, stop))
    assert walkers.tolist() == [0] and positions.tolist() == [3] and records[1].tolist() == [1]
    assert sim.metrics[-1].queries_per_machine[:2] == [1, 0]

    # Walker 1 starts on the stop at 2 and reads nothing.
    at, machines = np.array([0, 2, 3]), np.array([0, 1, 2])
    steps = []
    with sim.batch_round() as rnd:
        for walkers, positions, records in rnd.walk(0, at, machines, 0, stop):
            steps.append((walkers.tolist(), at[walkers].tolist(), positions.tolist(), records[1].tolist()))
    assert steps == [([0, 2], [0, 3], [0, 3], [0, 30]), ([0, 2], [1, 4], [1, 4], [10, 40])]
    assert at.tolist() == [2, 2, 5]
    assert sim.metrics[-1].queries_per_machine[:3] == [2, 0, 2]


def test_batch_round_seal_orders_only_what_needs_it():
    sim = Simulator(small_config())
    # Strictly ascending keys across writes are sealed as written.
    with sim.batch_round() as rnd:
        rnd.write_many(np.array([1, 4]), [np.array([10, 40])], np.array([2, 0]))
        rnd.write_many(np.array([6]), [np.array([60])], np.array([1]))
    assert list(sim.store.items()) == [(1, 10), (4, 40), (6, 60)]
    # Ascending keys that repeat still order a key's values by (machine,
    # write order).
    with sim.batch_round() as rnd:
        rnd.write_many(np.array([1, 1, 2, 2]), [np.array([10, 11, 20, 21])], np.array([2, 0, 1, 1]))
    assert list(sim.store.items()) == [(1, 11), (1, 10), (2, 20), (2, 21)]
    # Unsorted keys are sorted.
    with sim.batch_round() as rnd:
        rnd.write_many(np.array([5, 3]), [np.array([50, 30])], np.array([0, 0]))
    assert list(sim.store.items()) == [(3, 30), (5, 50)]


def test_batch_round_budget_violation_matches_closure_round():
    cfg = small_config(budget_slack=1.0, strict_budget=True)
    limit = cfg.budget_limit
    # Machine 0 reads past the budget, machine 2 writes past it, machine 3
    # stays inside it.
    reads = {0: [k % 4 for k in range(limit + 2)], 3: [1, 2]}
    writes = {2: list(range(limit + 1))}

    def program(ctx):
        for key in reads.get(ctx.machine_id, []):
            ctx.query(key)
        for key in writes.get(ctx.machine_id, []):
            ctx.write(key, 1)

    with pytest.raises(BudgetViolationError) as closure:
        Simulator(cfg, initial=scalars(np.arange(4), np.arange(4))).run_round(program)

    sim = Simulator(cfg, initial=scalars(np.arange(4), np.arange(4)))
    with pytest.raises(BudgetViolationError) as batch:
        with sim.batch_round() as rnd:
            for mid, keys in reads.items():
                rnd.gather(None, np.array(keys), np.full(len(keys), mid))
            for mid, keys in writes.items():
                rnd.write_many(np.array(keys), [np.ones(len(keys), dtype=np.int64)], np.full(len(keys), mid))
    assert batch.value.violations == closure.value.violations == [(0, limit + 2, 0), (2, 0, limit + 1)]
    assert batch.value.round_index == closure.value.round_index == 1


def test_store_columns_must_be_1d():
    with pytest.raises(TypeError, match="1-D"):
        ArrayGeneration([[1], [2]], [[5, 6]])
    with pytest.raises(TypeError, match="1-D"):
        ArrayGeneration([1, 2], [[[5], [6]]])
    sim = Simulator(small_config())
    with pytest.raises(TypeError, match="1-D"):
        with sim.batch_round() as rnd:
            rnd.write_many(np.array([1, 2]), [np.array([[5], [6]])], np.array([0, 1]))
    with pytest.raises(TypeError, match="1-D"):
        with sim.batch_round() as rnd:
            rnd.write_many(np.array([[1], [2]]), [np.array([5, 6])], np.array([0, 1]))
    with pytest.raises(TypeError, match="1-D"):
        with sim.batch_round() as rnd:
            rnd.gather(None, np.array([[1], [2]]), np.array([0, 1]))
    assert sim.round_index == 0 and sim.metrics == []


def test_batch_round_record_size_limit():
    sim = Simulator(small_config())
    with pytest.raises(RecordSizeError):
        with sim.batch_round() as rnd:
            rnd.write_many(np.array([1, 2]), [np.array([1, 2])] * 5, np.array([0, 1]))
    assert sim.round_index == 0 and sim.metrics == []


@pytest.mark.parametrize("generation", [-1, 2, 5])
def test_reading_an_unsealed_generation_fails_at_the_boundary(generation):
    sim = Simulator(small_config(), initial=ArrayGeneration([1], [[7]]))
    sim.run_round(lambda ctx: None)
    for read in (
        lambda ctx: ctx.query(1, generation=generation),
        lambda ctx: ctx.query_indexed(1, 1, generation=generation),
    ):
        with pytest.raises(ValueError, match=rf"generation {generation} .*0\.\.1"):
            sim.run_round(read)
    with pytest.raises(ValueError, match=rf"generation {generation} .*0\.\.1"):
        with sim.batch_round() as rnd:
            rnd.gather(generation, np.array([1]), np.array([0]))
    assert sim.round_index == 1


def test_closure_round_seals_through_the_batch_round():
    # Tuples with None, written by several machines, read back by a gather.
    sim = Simulator(small_config())

    def writer(ctx):
        if ctx.machine_id in (0, 2):
            ctx.write(5, (ctx.machine_id, None))
            ctx.write(np.int64(3), (np.int64(7), ctx.machine_id))

    metrics = sim.run_round(writer)
    assert metrics.writes_per_machine[:3] == [2, 0, 2]
    assert list(sim.store.items()) == [(3, (7, 0)), (3, (7, 2)), (5, (0, None)), (5, (2, None))]
    with sim.batch_round() as rnd:
        first, second = rnd.gather(None, np.array([5, 3, 4]), np.zeros(3, dtype=np.int64))
    assert first.tolist() == [0, 7, NONE] and second.tolist() == [NONE, 0, NONE]


@pytest.mark.parametrize("key, value", [(1, "a"), (1, 0.5), (1, (2, 2.5)), ("x", 1), ((1, 2), 1), (1, [1, 2])])
def test_closure_write_rejects_what_no_int64_column_holds(key, value):
    sim = Simulator(small_config())

    def program(ctx):
        if ctx.machine_id == 1:
            ctx.write(key, value)

    with pytest.raises(TypeError, match="int keys and int or None fields"):
        sim.run_round(program)
    assert sim.round_index == 0 and sim.metrics == []


def test_closure_round_rejects_mixed_record_widths():
    sim = Simulator(small_config())

    def program(ctx):
        if ctx.machine_id < 2:
            ctx.write(ctx.machine_id, (1, 2) if ctx.machine_id else 3)

    with pytest.raises(ValueError, match=r"\[1, 2\] fields"):
        sim.run_round(program)
    assert sim.round_index == 0 and sim.metrics == []


def test_initial_generation_is_an_array_generation():
    with pytest.raises(TypeError, match="ArrayGeneration"):
        Simulator(small_config(), initial=[(1, 7)])
    assert len(Simulator(small_config()).store) == 0


def round_numbering_outside_runtime(package: Path) -> list[str]:
    """Where a module of ``package`` other than runtime.py imports a private
    name from the runtime or shifts or offsets ``round_index``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "runtime.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module in ("runtime", "ampcsim.runtime"):
                found += [f"{where} imports {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.LShift, ast.Add, ast.Sub)):
                sides = (node.left, node.right)
                if any(isinstance(side, ast.Attribute) and side.attr == "round_index" for side in sides):
                    found.append(f"{where} computes with round_index")
    return found


def bulk_charges_outside_one_form(package: Path) -> list[str]:
    """Where a module of ``package`` divides 1 by an epsilon outside
    runtime.py, or calls ``.charge`` without exactly rounds, communication
    and label."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "charge":
                if len(node.args) + len(node.keywords) != 3 or any(isinstance(a, ast.Starred) for a in node.args):
                    found.append(f"{where} charges without rounds, communication and label")
            elif path.name != "runtime.py" and isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                divisor = node.right.attr if isinstance(node.right, ast.Attribute) else getattr(node.right, "id", "")
                if isinstance(node.left, ast.Constant) and node.left.value == 1 and "eps" in divisor:
                    found.append(f"{where} divides 1 by {divisor}")
    return found


def test_bulk_charges_have_one_form():
    # The ceil(1/epsilon) bulk round count is ModelConfig.bulk_rounds, and
    # every charge names its rounds, its communication and its label.
    package = Path(__file__).resolve().parents[1] / "src" / "ampcsim"
    assert (package / "runtime.py").exists()
    assert bulk_charges_outside_one_form(package) == []


def test_bulk_charge_check_flags_both_forms(tmp_path):
    (tmp_path / "runtime.py").write_text("rounds = 1 / epsilon\n")
    (tmp_path / "algo.py").write_text(
        "r = math.ceil(1.0 / config.epsilon)\nsim.charge(r, 5)\nsim.charge(r, 5, 'x')\n"
    )
    assert sorted(bulk_charges_outside_one_form(tmp_path)) == [
        "algo.py:1 divides 1 by epsilon",
        "algo.py:2 charges without rounds, communication and label",
    ]


def closure_rounds_outside_runtime(package: Path) -> list[str]:
    """Where a module of ``package`` other than runtime.py calls
    ``run_round`` or constructs a ``MachineContext``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "runtime.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                if name in ("run_round", "MachineContext"):
                    found.append(f"{path.name}:{node.lineno} calls {name}")
    return found


def test_algorithms_run_no_closure_rounds():
    # Algorithms read and write the store through BatchRound's gather, walk
    # and write_many; run_round and MachineContext stay for tests and the
    # benchmark tracer.
    package = Path(__file__).resolve().parents[1] / "src" / "ampcsim"
    assert (package / "runtime.py").exists()
    assert closure_rounds_outside_runtime(package) == []


def test_closure_round_check_flags_both_forms(tmp_path):
    (tmp_path / "runtime.py").write_text("ctx = MachineContext(sim, 0, 1)\n")
    (tmp_path / "algo.py").write_text("sim.run_round(program)\nctx = runtime.MachineContext(sim, 0, 1)\n")
    assert closure_rounds_outside_runtime(tmp_path) == ["algo.py:1 calls run_round", "algo.py:2 calls MachineContext"]


# Every call of resolve_pointers, a central pointer chase that no round
# pays for, outside graphs.py and oracles.py: (module, function, role).
RESOLVE_POINTERS_SITES = [
    ("connectivity.py", "_leader_contract", "hook chains, unpaid"),
    ("contraction.py", "_Chains._sample", "forced samples, unpaid"),
    ("contraction.py", "label_cycles", "representatives, unpaid"),
    ("contraction.py", "orient_cycles", "orientation before the first round"),
    ("contraction.py", "two_cycle", "machine-0 residual"),
    ("trees.py", "euler_tour", "input check, plus the tree ids"),
]


def resolve_pointers_sites(package: Path) -> list[tuple[str, str]]:
    """The (module, enclosing function) of every ``resolve_pointers`` call
    in ``package`` outside graphs.py and oracles.py, one entry per call."""
    found = []

    def visit(node: ast.AST, path: Path, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")) == "resolve_pointers":
                    found.append((path.name, scope))
            visit(child, path, scope)

    for path in sorted(package.glob("*.py")):
        if path.name not in ("graphs.py", "oracles.py"):
            visit(ast.parse(path.read_text(), filename=str(path)), path, "")
    return sorted(found)


def test_resolve_pointers_sites_are_listed():
    # A ratchet: adding or removing an unpaid central chase means editing
    # RESOLVE_POINTERS_SITES and saying what the new site is for.
    package = Path(__file__).resolve().parents[1] / "src" / "ampcsim"
    assert (package / "graphs.py").exists()
    assert resolve_pointers_sites(package) == sorted((module, scope) for module, scope, _ in RESOLVE_POINTERS_SITES)


def test_resolve_pointers_site_check_names_the_scope(tmp_path):
    (tmp_path / "graphs.py").write_text("def resolve_pointers(p):\n    return resolve_pointers(p)\n")
    (tmp_path / "algo.py").write_text(
        "class C:\n    def f(self):\n        return graphs.resolve_pointers(x)\n"
        "def g():\n    a = resolve_pointers(x)\n    return resolve_pointers(a)\n"
    )
    assert resolve_pointers_sites(tmp_path) == [("algo.py", "C.f"), ("algo.py", "g"), ("algo.py", "g")]


def test_round_numbering_stays_in_runtime():
    # Machine maps and coin tags come from Simulator.machines and
    # Simulator.coins; reading round_index as the last sealed generation
    # stays allowed.
    package = Path(__file__).resolve().parents[1] / "src" / "ampcsim"
    assert (package / "runtime.py").exists()
    assert round_numbering_outside_runtime(package) == []
