"""3-Partition instances: validation, exact solving, seeded generators.

An instance is 3z positive values that are supposed to split into z triples,
each summing to D = sum/z.  The strict window D/4 < value < D/2 forces every
part of any partition (into sets summing to D) to have exactly three
elements, which is what the downstream reduction relies on.  The reduction
additionally needs D > 4z(7z+1); `scale_if_needed` multiplies values up to
meet that, which changes nothing about which partitions exist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exactnum import (
    InvalidInput, check_shape, digit_bound, dump_json, parse_int, reading, require,
)

Triple = tuple[int, int, int]
Partition = tuple[Triple, ...]


# node budget per root branch of `solver.decide_target` and `gadgetforge decide`
DEFAULT_BUDGET = 10_000_000


class SearchBudgetExceeded(Exception):
    def __init__(self, nodes: int):
        self.nodes = nodes
        super().__init__(f"search exceeded node budget after {nodes} nodes")


@dataclass(frozen=True)
class ProvedNo:
    """Exhaustive-search certificate that no partition exists."""

    nodes: int


@dataclass(frozen=True)
class ThreePartitionInstance:
    values: tuple[int, ...]

    @property
    def z(self) -> int:
        return len(self.values) // 3

    @property
    def D(self) -> int:
        total = sum(self.values)
        if self.z == 0 or total % self.z:
            raise InvalidInput("values do not sum to a multiple of z")
        return total // self.z

    def to_json(self) -> str:
        payload = {"z": self.z, "values": list(self.values)}
        return dump_json(payload)

    @classmethod
    def from_json(cls, text: str) -> "ThreePartitionInstance":
        with reading(text, "a 3-partition instance") as payload:
            raw = check_shape(payload["values"], list, "values")
        values = tuple(parse_int(v, "a value") for v in raw)
        inst = cls(values)
        declared = payload.get("z")
        if type(declared) is not int or declared != inst.z:
            raise InvalidInput(
                f"declared z={payload.get('z')} but {len(values)} values"
            )
        return inst


def validate(inst: ThreePartitionInstance) -> list[str]:
    """All structural violations, empty when the instance is well formed.

    Bounds are checked exactly: 4*value > D and 2*value < D, never via
    floating point.
    """
    problems = []
    n = len(inst.values)
    if n == 0 or n % 3:
        problems.append(f"value count {n} is not a positive multiple of 3")
        return problems
    z = n // 3
    for idx, v in enumerate(inst.values, start=1):
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            problems.append(f"value #{idx} = {v!r} is not a positive integer")
    if problems:
        return problems
    total = sum(inst.values)
    if total % z:
        problems.append(f"sum {total} is not divisible by z={z}")
        return problems
    D = total // z
    for idx, v in enumerate(inst.values, start=1):
        if not 4 * v > D:
            problems.append(f"value #{idx} = {v} violates 4*value > D = {D}")
        if not 2 * v < D:
            problems.append(f"value #{idx} = {v} violates 2*value < D = {D}")
    return problems


def validate_partition(
    inst: ThreePartitionInstance, partition: Partition
) -> list[str]:
    problems = []
    z, D = inst.z, inst.D
    if len(partition) != z:
        problems.append(f"{len(partition)} sets, expected {z}")
    seen: set[int] = set()
    for part in partition:
        if len(part) != 3:
            problems.append(f"set {part} does not have 3 members")
            continue
        if any(not 1 <= i <= 3 * z for i in part):
            problems.append(f"set {part} has indices outside 1..{3 * z}")
            continue
        if seen & set(part):
            problems.append(f"set {part} reuses an index")
        seen |= set(part)
        total = sum(inst.values[i - 1] for i in part)
        if total != D:
            problems.append(f"set {part} sums to {total}, not {D}")
    if not problems and len(seen) != 3 * z:
        problems.append("sets do not cover every index")
    return problems


def scale_if_needed(
    inst: ThreePartitionInstance,
) -> tuple[ThreePartitionInstance, int]:
    """Multiply all values so that D > 4z(7z+1); returns (instance, factor).

    Scaling is a bijection on partitions, so yes/no status is preserved.
    Raises InvalidInput when D is below 2, which no factor of at most the
    bound lifts above it.
    """
    bound = digit_bound(inst.z)
    if inst.D > bound:
        return inst, 1
    if inst.D < 2:
        raise InvalidInput(f"D={inst.D} must be at least 2 to scale")
    # D >= 2, so D * bound > bound
    return ThreePartitionInstance(tuple(v * bound for v in inst.values)), bound


def _canonical(parts: list[tuple[int, ...]]) -> Partition:
    ordered = sorted(tuple(sorted(p)) for p in parts)
    return tuple(ordered)  # type: ignore[return-value]


def solve(
    inst: ThreePartitionInstance, budget: int | None = None
) -> Partition | ProvedNo:
    """Exhaustive DFS over triples containing the lowest uncovered index.

    Returns the first partition found (canonically sorted) or a ProvedNo
    carrying the node count.  Raises SearchBudgetExceeded when the number
    of visited nodes passes `budget`.

    Every pair of the other uncovered indices is tried, with no bound on a
    value, so the search is complete for any integer values and needs no
    validation: a value of 0 or below is searched like any other.  On a
    valid instance no value reaches want = D - values[first], as each is
    below D/2, so a skip of va >= want would prune nothing there.
    `nodes` counts `dfs` calls.
    """
    z, D = inst.z, inst.D
    n = 3 * z
    values = inst.values
    nodes = 0

    def dfs(uncovered: list[int], parts: list[tuple[int, ...]]) -> bool:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(nodes)
        if not uncovered:
            return True
        first, rest = uncovered[0], uncovered[1:]
        want = D - values[first - 1]
        for a in range(len(rest)):
            va = values[rest[a] - 1]
            for b in range(a + 1, len(rest)):
                if va + values[rest[b] - 1] != want:
                    continue
                parts.append((first, rest[a], rest[b]))
                remaining = rest[:a] + rest[a + 1 : b] + rest[b + 1 :]
                if dfs(remaining, parts):
                    return True
                parts.pop()
        return False

    parts: list[tuple[int, ...]] = []
    if dfs(list(range(1, n + 1)), parts):
        return _canonical(parts)
    return ProvedNo(nodes=nodes)


def gen_yes(z: int, seed: int) -> tuple[ThreePartitionInstance, Partition]:
    """Planted-witness instance with D already above the reduction bound.
    A z below 1 is refused with InvalidInput."""
    if z < 1:
        raise InvalidInput(f"z={z} must be at least 1")
    rng = random.Random(f"yes:{z}:{seed}")
    bound = digit_bound(z)
    D = 4 * bound + rng.randrange(bound + 9, 4 * bound + 9)
    lo, hi = D // 4 + 1, (D - 1) // 2

    flat: list[int] = []
    for _ in range(z):
        a = rng.randint(lo, min(hi, D - 2 * lo))
        b_lo, b_hi = max(lo, D - a - hi), min(hi, D - a - lo)
        b = rng.randint(b_lo, b_hi)
        flat.extend((a, b, D - a - b))

    order = list(range(3 * z))
    rng.shuffle(order)
    values = [0] * (3 * z)
    position = [0] * (3 * z)
    for new_pos, old_pos in enumerate(order):
        values[new_pos] = flat[old_pos]
        position[old_pos] = new_pos + 1
    witness = _canonical(
        [tuple(position[3 * t + j] for j in range(3)) for t in range(z)]
    )

    inst = ThreePartitionInstance(tuple(values))
    require(
        "the generated instance",
        (not validate(inst), "valid"),
        (not validate_partition(inst, witness), "solved by its witness"),
    )
    return inst, witness


def gen_no(z: int, seed: int) -> ThreePartitionInstance:
    """Certified no-instance built from a mod-4 obstruction.

    D is made ≡ 3 (mod 4) while every value is ≡ 0 or ≡ 1, with exactly
    3z-4 values in the ≡ 1 class.  A triple can only reach a sum ≡ 3 by
    using three ≡ 1 values, so a full partition would need 3z of them;
    only 3z-4 exist.  A z below 2 is refused with InvalidInput: the scheme
    needs 3z-4 >= 2 values in the odd class.

    The values are drawn in [lo, hi] = [D//4 + 1, (D-1)//2], each near D/3
    and lifted to its residue: D >= 5 * digit_bound(z) + 9, so D/3 plus
    half the bound plus 3 stays below D/2.  Their sum is then balanced to
    zD by moves of ±4, which keep every residue and stay in [lo, hi], so
    the instance is valid.  A move is always possible: while the sum is
    below zD, some value is at most hi - 4, as otherwise the sum would be
    at least 3z(hi - 3) > zD; while it is above, some value is at least
    lo + 4, as otherwise the sum would be at most 3z(lo + 3) < zD; both as
    D > 48.  So each draw moves a value with probability at least 1/(3z),
    and the |delta|/4 moves the first difference delta asks for take at
    most 3z|delta|/4 draws on average.  The cap allows twice that plus
    10,000z, which a run passes with probability below e^-400 (a Chernoff
    bound on the moves made in that many draws).  Passing the cap, and a
    balanced instance that fails `validate` or that `solve` does not prove
    to have no partition, are thus faults of the program and raise
    RuntimeError; `solve` past its node budget raises SearchBudgetExceeded.
    """
    if z < 2:
        raise InvalidInput(
            "the congruence scheme needs z >= 2 (a no-instance with z=1 "
            "cannot keep exactly 3z-4 >= 2 values in the odd class)"
        )
    rng = random.Random(f"no:{z}:{seed}")
    bound = digit_bound(z)
    D = 4 * bound + rng.randrange(bound + 9, 4 * bound + 9)
    D += (3 - D) % 4
    lo, hi = D // 4 + 1, (D - 1) // 2

    ones = 3 * z - 4
    residues = [1] * ones + [0] * 4
    rng.shuffle(residues)

    def snap(x: int, r: int) -> int:
        # nearest value >= lo with the wanted residue mod 4
        base = max(x, lo)
        return base + (r - base) % 4

    values = [snap(D // 3 + rng.randint(-bound // 2, bound // 2), r) for r in residues]
    target = z * D
    delta = target - sum(values)
    require("the drawn values", (delta % 4 == 0, "a multiple of 4 short of z D"))
    step = 4 if delta > 0 else -4
    cap = 10_000 * z + 6 * z * (abs(delta) // 4)
    guard = 0
    while delta:
        i = rng.randrange(3 * z)
        cand = values[i] + step
        if lo <= cand <= hi:
            values[i] = cand
            delta -= step
        guard += 1
        if guard > cap:
            raise RuntimeError("gen_no could not balance the value sum in bounds")

    inst = ThreePartitionInstance(tuple(values))
    require(
        "the generated instance",
        (not validate(inst), "valid"),
        (isinstance(solve(inst, budget=1_000_000), ProvedNo), "proved unsolvable"),
    )
    return inst


def partition_to_json(partition: Partition) -> str:
    return dump_json({"sets": [list(p) for p in partition]})


def partition_from_json(text: str) -> Partition:
    with reading(text, "a witness") as payload:
        sets = check_shape(payload["sets"], list, "sets")
    return _canonical(
        [
            tuple(parse_int(i, "a set member") for i in check_shape(s, list, "a set"))
            for s in sets
        ]
    )
