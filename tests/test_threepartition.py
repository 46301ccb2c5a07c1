"""3-Partition validation, solving, and generator guarantees.

The bitmask dynamic program at the bottom is an independent yes/no oracle
used to cross-check the DFS solver on small instances.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gadgetforge.exactnum import digit_bound
from gadgetforge.threepartition import (
    GenerationFailed,
    ProvedNo,
    SearchBudgetExceeded,
    ThreePartitionInstance,
    gen_no,
    gen_yes,
    partition_from_json,
    partition_to_json,
    scale_if_needed,
    solve,
    validate,
    validate_partition,
)


# ===== independent oracle =====


def dp_has_partition(values):
    """Bitmask DP: can the whole index set be covered by D-sum triples?"""
    n = len(values)
    z = n // 3
    if n % 3 or sum(values) % z:
        return False
    D = sum(values) // z
    full = (1 << n) - 1
    memo = {full: True}

    def ok(mask):
        if mask in memo:
            return memo[mask]
        first = 0
        while mask >> first & 1:
            first += 1
        result = False
        for a in range(first + 1, n):
            if mask >> a & 1:
                continue
            for b in range(a + 1, n):
                if mask >> b & 1:
                    continue
                if values[first] + values[a] + values[b] == D:
                    if ok(mask | 1 << first | 1 << a | 1 << b):
                        result = True
                        break
            if result:
                break
        memo[mask] = result
        return result

    return ok(0)


# ===== validation =====


def test_valid_instance_has_no_violations():
    assert validate(ThreePartitionInstance((10, 11, 12))) == []


def test_strict_lower_bound_violation():
    # D = 33 and 4*8 = 32 is not > 33
    problems = validate(ThreePartitionInstance((8, 12, 13)))
    assert any("#1" in p and "4*value" in p for p in problems)


def test_strict_upper_bound_violation():
    problems = validate(ThreePartitionInstance((17, 7, 9)))
    assert any("#1" in p and "2*value" in p for p in problems)


def test_sum_divisibility_violation():
    problems = validate(ThreePartitionInstance((10, 11, 12, 10, 11, 13)))
    assert any("divisible" in p for p in problems)


def test_bad_count_violation():
    assert validate(ThreePartitionInstance((10, 11)))
    assert validate(ThreePartitionInstance(()))


def test_partition_validation():
    inst = ThreePartitionInstance((10, 11, 12))
    assert validate_partition(inst, ((1, 2, 3),)) == []
    assert validate_partition(inst, ((1, 2, 2),))
    assert validate_partition(inst, ())


# ===== scaling =====


def test_scale_leaves_large_d_alone():
    inst = ThreePartitionInstance((10, 11, 12))
    scaled, factor = scale_if_needed(inst)
    assert factor == 1 and scaled is inst


def test_scale_example():
    inst = ThreePartitionInstance((9, 10, 11))  # D = 30 <= 32
    scaled, factor = scale_if_needed(inst)
    assert factor == 32
    assert scaled.values == (288, 320, 352)
    assert scaled.D == 960
    assert validate(scaled) == []


@pytest.mark.parametrize("values", [(0, 0, 0), (-1, -1, -1), (1, 0, 0)])
def test_scale_refuses_a_D_below_2(values):
    # Multiplied by the bound, a D below 2 stays at or below it.
    with pytest.raises(ValueError, match="must be at least 2"):
        scale_if_needed(ThreePartitionInstance(values))


def test_scaling_preserves_status():
    yes, _ = gen_yes(2, 7)
    small_yes = ThreePartitionInstance(tuple(v for v in yes.values))
    scaled, _ = scale_if_needed(small_yes)
    assert isinstance(solve(scaled), tuple) == isinstance(solve(small_yes), tuple)


# ===== solver =====


def test_solve_single_triple():
    assert solve(ThreePartitionInstance((10, 11, 12))) == ((1, 2, 3),)


def test_solve_finds_planted_partition():
    for seed in range(5):
        inst, witness = gen_yes(2, seed)
        result = solve(inst)
        assert isinstance(result, tuple)
        assert validate_partition(inst, result) == []


def test_solve_proves_no():
    inst = gen_no(2, 0)
    verdict = solve(inst)
    assert isinstance(verdict, ProvedNo)
    assert verdict.nodes >= 1


def test_budget_exceeded():
    inst, _ = gen_yes(3, 1)
    with pytest.raises(SearchBudgetExceeded):
        solve(inst, budget=1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 3))
def test_solver_agrees_with_dp_oracle(seed, z):
    import random

    rng = random.Random(seed)
    # Mix planted-yes values and perturbed ones so both answers occur.
    inst, _ = gen_yes(z, seed)
    values = list(inst.values)
    if rng.random() < 0.6:
        i, j = rng.randrange(3 * z), rng.randrange(3 * z)
        shift = rng.randint(1, 3)
        values[i] += shift
        values[j] -= shift
    probe = ThreePartitionInstance(tuple(values))
    if validate(probe):
        return
    got = solve(probe)
    assert isinstance(got, tuple) == dp_has_partition(probe.values)
    if isinstance(got, tuple):
        assert validate_partition(probe, got) == []


# ===== generators =====


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_gen_yes_guarantees(z, seed):
    inst, witness = gen_yes(z, seed)
    assert validate(inst) == []
    assert validate_partition(inst, witness) == []
    assert inst.D > digit_bound(z)
    again, again_witness = gen_yes(z, seed)
    assert again == inst and again_witness == witness


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.integers(0, 1000))
def test_gen_no_guarantees(z, seed):
    inst = gen_no(z, seed)
    assert validate(inst) == []
    assert inst.D > digit_bound(z)
    assert inst.D % 4 == 3
    ones = sum(1 for v in inst.values if v % 4 == 1)
    assert ones == 3 * z - 4
    assert all(v % 4 in (0, 1) for v in inst.values)
    assert gen_no(z, seed) == inst


def test_gen_yes_refuses_an_instance_its_witness_does_not_solve(monkeypatch):
    import gadgetforge.threepartition as tp

    monkeypatch.setattr(tp, "validate_partition", lambda inst, partition: ["bad"])
    with pytest.raises(RuntimeError, match="not solved by its witness"):
        gen_yes(2, 0)


def test_gen_no_rejects_z1():
    with pytest.raises(GenerationFailed):
        gen_no(1, 0)


def test_gen_no_defeats_dp_oracle():
    for seed in (0, 1, 2):
        inst = gen_no(2, seed)
        assert not dp_has_partition(inst.values)


# ===== serialization =====


def test_instance_json_roundtrip_is_byte_identical():
    inst, witness = gen_yes(2, 3)
    text = inst.to_json()
    assert ThreePartitionInstance.from_json(text).to_json() == text
    wtext = partition_to_json(witness)
    assert partition_to_json(partition_from_json(wtext)) == wtext


def test_instance_json_z_mismatch():
    with pytest.raises(ValueError):
        ThreePartitionInstance.from_json('{"z": 2, "values": [10, 11, 12]}')
