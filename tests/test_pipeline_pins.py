"""Byte-level pins of the checkers' outputs at scale.

`tests/golden/` replays the CLI only for z <= 3, where an ordering slip in
the audit rows, the extraction events or the normalized positions can hide.
These pins hash the canonical JSON of each output on `gen_yes(10, s)` and
`gen_yes(40, s)`: the audit's every check in order, and the extraction
trace (or refutation certificate), of the canonical, mirrored and
machine-relabelled schedules, of criterion 8's three perturbations and of
forgeries that reach the count chains; and the positions that `normalize`
settles a lifted, fractionally shifted packing into.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from gadgetforge.extraction import (
    NotTargetMakespan,
    RefutationCertificate,
    extract_partition,
)
from gadgetforge.reduction import SchedulingInstance, build_jobs, build_strip
from gadgetforge.exactnum import InvalidInput
from gadgetforge.schedule import Schedule, audit, mirror, swap_after
from gadgetforge.strip import Packing, normalize
from gadgetforge.synthesis import build_packing, build_schedule
from gadgetforge.threepartition import gen_yes

CASES = [(10, 1), (10, 2), (40, 1)]


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _extraction(inst3, inst, sched):
    try:
        _, trace = extract_partition(inst3, inst, sched)
    except RefutationCertificate as cert:
        return cert.to_dict()
    except NotTargetMakespan as exc:
        return {"not-target": str(exc)}
    return trace.to_dict()


def _audit(inst, sched):
    try:
        return [c.to_dict() for c in audit(inst, sched).checks]
    except InvalidInput as exc:
        return {"not-zero-idle": str(exc)}


def _perturbed(inst3, inst, sched):
    """Criterion 8's three kinds: value jobs moved between gaps, one block's
    separators exchanged, and the narrow filler cut loose by 1, D/2 and D;
    then side singles and a narrow pair ending one unit late, which trip the
    count chains."""
    z, D = inst.z, inst.D
    other = next(
        y for y in range(2, 3 * z + 1) if inst3.values[y - 1] != inst3.values[0]
    )
    swaps = [("P_1", f"P_{other}"), (f"A_{z // 2}", f"B_{z // 2}")]
    out = []
    for a, b in swaps:
        starts = dict(sched.starts)
        starts[a], starts[b] = starts[b], starts[a]
        out.append(Schedule(starts=starts, machines=sched.machines))
    for shift in (1, D // 2, D):
        starts = dict(sched.starts)
        starts[f"gamma_{z // 2 + 1}"] += shift
        out.append(Schedule(starts=starts, machines=sched.machines))
    for tag in ("alpha", "b", "beta"):
        starts = dict(sched.starts)
        starts[f"{tag}_{z // 2}"] += 1
        out.append(Schedule(starts=starts, machines=sched.machines))
    return out


def pin_digests(z: int, seed: int) -> dict[str, str]:
    inst3, witness = gen_yes(z, seed)
    inst = build_jobs(inst3)
    sched = build_schedule(inst, witness)

    relabelled = swap_after(inst, sched, sched.starts[f"A_{z // 2}"], 2, 3)
    relabelled = swap_after(inst, relabelled, 0, 1, 4)
    schedules = [sched, mirror(inst, sched), relabelled]
    schedules += _perturbed(inst3, inst, sched)
    pins = {
        "audit": digest([_audit(inst, s) for s in schedules]),
        "extract": digest([_extraction(inst3, inst, s) for s in schedules]),
    }

    # Lift every item to 2y + e with 0 <= e < 1 and stretch x by x/W inside a
    # strip one unit wider: both keep the packing feasible, and both put
    # fractions on every axis for normalize to remove.
    strip = build_strip(inst3)
    packing = build_packing(strip, witness)
    wide = SchedulingInstance(
        m=strip.m, z=strip.z, D=strip.D, W=strip.W + 1, jobs=strip.jobs
    )
    lifted = {
        job.id: (x + Fraction(x, strip.W), 2 * y + Fraction(k % 5, 5))
        for k, job in enumerate(strip.jobs)
        for x, y in [packing.positions[job.id]]
    }
    settled = normalize(wide, Packing(positions=lifted))
    pins["normalize"] = digest(
        {k: [repr(x), repr(y)] for k, (x, y) in settled.positions.items()}
    )
    return pins


PINS = {
    (10, 1): {
        "audit": "3bd977a824dd4328",
        "extract": "fde5cda4198069b8",
        "normalize": "3e96ae71902c0ef4",
    },
    (10, 2): {
        "audit": "2accbf9a44d000c2",
        "extract": "90e918be37b47f71",
        "normalize": "6fd21d28ba4dbb88",
    },
    (40, 1): {
        "audit": "f8dd202bc0a0c36a",
        "extract": "81d2397314a67970",
        "normalize": "0dcca1db495fbc6b",
    },
}


@pytest.mark.parametrize("z,seed", CASES)
def test_checker_outputs_are_pinned(z, seed):
    assert pin_digests(z, seed) == PINS[z, seed]
