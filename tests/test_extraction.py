import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from gadgetforge import extraction
from gadgetforge.exactnum import InvalidInput
from gadgetforge.extraction import (
    ExtractionTrace,
    NotTargetMakespan,
    RefutationCertificate,
    extract_partition,
    normalize_machines,
)
from gadgetforge.reduction import build_jobs
from gadgetforge.schedule import Schedule, finished_by_index, mirror, swap_after, verify
from gadgetforge.synthesis import build_schedule
from gadgetforge.threepartition import ThreePartitionInstance, gen_yes


def canon(partition):
    return tuple(sorted(tuple(sorted(s)) for s in partition))


def permuted(sched, perm):
    return Schedule(
        starts=dict(sched.starts),
        machines={i: frozenset(perm[m] for m in ms) for i, ms in sched.machines.items()},
    )


def swapped_starts(sched, one, two):
    starts = dict(sched.starts)
    starts[one], starts[two] = starts[two], starts[one]
    return Schedule(starts=starts, machines=dict(sched.machines))


# ===== full pipeline =====


def test_extract_canonical(canonical_z1):
    inst3p, inst, sched = canonical_z1
    partition, trace = extract_partition(inst3p, inst, sched)
    assert partition == ((1, 2, 3),)
    assert isinstance(trace, ExtractionTrace)
    assert not trace.mirrored
    assert all(e.get("event") != "swap" for e in trace.events)
    json.dumps(trace.to_dict())


def test_extract_mirrored_and_permuted(canonical_z1):
    inst3p, inst, sched = canonical_z1
    scrambled = permuted(
        mirror(inst, sched), {1: 3, 2: 1, 3: 4, 4: 2}
    )
    partition, trace = extract_partition(inst3p, inst, scrambled)
    assert partition == ((1, 2, 3),)
    assert trace.mirrored
    assert any(e.get("event") == "swap" for e in trace.events)


@pytest.mark.parametrize("z,seed", [(1, 13), (2, 6), (3, 4)])
def test_extract_generated_roundtrip(z, seed):
    inst3p, witness = gen_yes(z, seed)
    inst = build_jobs(inst3p)
    sched = build_schedule(inst, witness)
    partition, _ = extract_partition(inst3p, inst, sched)
    assert partition == canon(witness)


def test_extract_permuted_generated_roundtrip():
    inst3p, witness = gen_yes(2, 21)
    inst = build_jobs(inst3p)
    sched = permuted(build_schedule(inst, witness), {1: 4, 2: 3, 3: 2, 4: 1})
    partition, _ = extract_partition(inst3p, inst, sched)
    assert partition == canon(witness)


def test_extract_accepts_filler_anywhere_in_window(canonical_z1):
    # Zero idle does not pin the narrow filler to the front of its window;
    # value jobs may tile either side of it.
    inst3p, inst, sched = canonical_z1
    jobs = inst.by_id
    edge = sched.starts["a_1"] + jobs["a_1"].p
    starts = dict(sched.starts)
    starts["P_3"] = edge
    starts["gamma_1"] = edge + jobs["P_3"].p
    starts["P_1"] = starts["gamma_1"] + jobs["gamma_1"].p
    starts["P_2"] = starts["P_1"] + jobs["P_1"].p
    moved = Schedule(starts=starts, machines=dict(sched.machines))
    assert verify(inst, moved).feasible
    partition, _ = extract_partition(inst3p, inst, moved)
    assert partition == ((1, 2, 3),)


def test_extract_rejects_off_target_makespan(canonical_z1):
    inst3p, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["lambda2"] += inst.D
    late = Schedule(starts=starts, machines=dict(sched.machines))
    with pytest.raises(NotTargetMakespan):
        extract_partition(inst3p, inst, late)


def test_extract_rejects_foreign_values(canonical_z1):
    _, inst, sched = canonical_z1
    with pytest.raises(ValueError, match="encode"):
        extract_partition(ThreePartitionInstance((9, 12, 12)), inst, sched)


def test_extract_refuses_an_instance_that_is_no_reduction(canonical_z1):
    # the values still match: only the gate's recognition refuses it
    inst3p, inst, sched = canonical_z1
    jobs = tuple(replace(j, p=j.p + 1) if j.id == "lambda2" else j for j in inst.jobs)
    with pytest.raises(InvalidInput, match="^extraction needs an unmodified reduction instance$"):
        extract_partition(inst3p, replace(inst, jobs=jobs), sched)


def test_refutation_names_broken_count_chain(canonical_z1):
    # pushing a_1 past its window starves the late separator's count chain
    inst3p, inst, sched = canonical_z1
    forged = swapped_starts(sched, "a_1", "alpha_1")
    assert verify(inst, forged).makespan == inst.W
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3p, inst, forged)
    assert exc.value.lemma == "late-separator-chain"
    json.dumps(exc.value.to_dict())


def test_refutation_names_broken_side_tiling(canonical_z1):
    # a one-unit nudge keeps every separator count intact (the slack before
    # the next anchor is huge) but machine 1 no longer runs back to back
    inst3p, inst, sched = canonical_z1
    starts = dict(sched.starts)
    starts["a_1"] += 1
    forged = Schedule(starts=starts, machines=dict(sched.machines))
    assert verify(inst, forged).makespan == inst.W
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3p, inst, forged)
    assert exc.value.stage == "side-order"
    assert exc.value.lemma == "zero-idle"


def test_refutation_names_broken_gap_tiling(canonical_z1):
    inst3p, inst, sched = canonical_z1
    forged = swapped_starts(sched, "P_1", "P_2")
    assert verify(inst, forged).makespan == inst.W
    assert not verify(inst, forged).feasible
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3p, inst, forged)
    assert exc.value.lemma == "gap-tiling"


def test_refutation_after_mirroring_a_start_below_zero():
    """A backward schedule whose value job on machine 3 starts before 0 is
    at the target makespan, but its mirror ends past W.  The pipeline goes
    on with the mirrored schedule, and a lemma refutes it."""
    inst3, witness = gen_yes(2, 1)
    inst = build_jobs(inst3)
    sched = build_schedule(inst, witness)
    for t in (sched.starts["A_0"], sched.starts["B_1"]):
        sched = swap_after(inst, sched, t, 2, 3)
    sched = mirror(inst, sched)
    value = next(j.id for j in inst.tagged("P") if sched.machines[j.id] == {3})
    forged = Schedule({**sched.starts, value: -5}, sched.machines)
    assert verify(inst, forged).makespan == inst.W
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3, inst, forged)
    assert exc.value.lemma == "pair-columns"
    assert {"stage": "orient", "event": "mirror"} in exc.value.events


# ===== one forged schedule per lemma =====

# gen_yes(1, 0)'s synthesized schedule runs its separators B_0 on {2, 3, 4}
# from 0, A_0 on {1, 2, 3}, B_1 on {2, 3, 4} and A_1 on {1, 2, 3}, which
# ends at W; each forgery below changes the starts and machine sets it
# lists, given the synthesized starts s, the lengths p and D.  A detail
# may name a synthesized start as {job id}.  The forgeries of `WIDER` start
# from gen_yes(z, 0) with a larger z.
ORIENTED = [{"stage": "normalize", "event": "ok"}, {"stage": "orient", "event": "ok"}]
ALTERNATING = [*ORIENTED, {"stage": "alternation", "event": "ok"}]
LEMMA_FORGERIES = {
    # a separator on two machines
    "rigid-width": (
        lambda s, p, D: ({}, {"B_1": {2, 4}}),
        ("normalize", "rigid-width", "B_1 occupies [2, 4]"),
        [],
    ),
    # B_0 ends at 0 on both side machines, so the walk's swap from 0 leaves
    # it there, and A_0 misses a middle machine after it
    "separator-spread": (
        lambda s, p, D: ({"B_0": -p["B_0"]}, {"B_0": {1, 2, 4}, "A_0": {1, 3, 4}}),
        ("normalize", "separator-spread", "B_0 lost its side machine"),
        [{"stage": "normalize", "event": "swap", "t": "0", "machines": [1, 3]}],
    ),
    # A_0 misses a middle machine and starts while B_0 runs
    "separator-overlap": (
        lambda s, p, D: ({"A_0": 1}, {"A_0": {1, 2, 4}}),
        ("normalize", "separator-overlap", "B_0 and A_0 run concurrently"),
        [],
    ),
    # A_0 starts where c_0 does, long before the opening cap ends
    "separator-counts/opening": (
        lambda s, p, D: ({"A_0": s["c_0"], "c_0": s["A_0"]}, {}),
        ("alternation", "separator-counts", "A_0: opening cap count 0 != 1"),
        ORIENTED,
    ),
    # A_0 and A_1 overlap, with B_1 starting between them
    "separator-counts/own": (
        lambda s, p, D: ({"A_0": s["B_1"] - 1, "A_1": s["B_1"] + 1}, {}),
        ("alternation", "separator-counts", "A_1: own rank != 1"),
        ORIENTED,
    ),
    # A_1 starts while B_1 runs
    "separator-counts/opposite": (
        lambda s, p, D: ({"A_1": s["B_1"] + 1}, {}),
        ("alternation", "separator-counts", "A_1: opposite rank != 2"),
        ORIENTED,
    ),
    # B_1 starts while A_0 runs
    "separator-counts/late": (
        lambda s, p, D: ({"A_0": s["B_1"] - 1}, {}),
        ("alternation", "separator-counts", "B_1: rank != 1"),
        ORIENTED,
    ),
    # the closing cap runs from 0 and ends before B_1
    "trailing-cap": (
        lambda s, p, D: ({"lambda2": 0}, {}),
        ("count-equations", "trailing-cap", "closing cap finishes before B_1"),
        ALTERNATING,
    ),
    # c_1 starts inside the gap, where P_1 did, and P_1 after B_1
    "filler-fit": (
        lambda s, p, D: ({"c_1": s["P_1"], "P_1": s["c_1"]}, {}),
        ("filler-fit", "filler-fit", "0 fillers start at {B_1 end} after B_1"),
        ALTERNATING,
    ),
    # gamma_1 starts D before the end of a_1, which opens its window
    "narrow-window": (
        lambda s, p, D: ({"gamma_1": s["gamma_1"] - D}, {}),
        ("gap-readout", "narrow-window", "gamma_1 is outside the window after a_1"),
        [*ALTERNATING, {"stage": "pair-columns", "event": "ok"}],
    ),
    # the opening cap on middle machine 3, where no separator walk reaches
    "machine-contents/cap": (
        lambda s, p, D: ({}, {"lambda1": {3}}),
        ("normalize", "machine-contents", "the opening cap sits on a middle machine"),
        [],
    ),
    # alpha_1 on machine 4, c_0 on {1, 2} and a_1 on {1, 3}: each check of
    # the machine contents fails, and all of them are listed
    "machine-contents/list": (
        lambda s, p, D: ({}, {"alpha_1": {4}, "c_0": {1, 2}, "a_1": {1, 3}}),
        (
            "normalize",
            "machine-contents",
            "machine 1 holds ['alpha_1', 'c_0'] unexpectedly; "
            "machine 4 holds ['alpha_1'] unexpectedly; "
            "machine 3 misses ['c_0']; "
            "machine 2 pairs a/gamma 0/1 and b/delta 0/0; "
            "machine 2 holds 0 narrow-pair jobs, not z; "
            "machine 3 pairs a/gamma 1/0 and b/delta 1/1; "
            "machine 3 holds 2 narrow-pair jobs, not z",
        ),
        [],
    ),
    # P_1 ends at 0, so it opens machine 2 before B_0
    "first-job": (
        lambda s, p, D: ({"P_1": -p["P_1"]}, {}),
        ("orient", "first-job", "machine 2 opens with P_1 (q=1)"),
        [{"stage": "normalize", "event": "ok"}],
    ),
    # B_1 starts just before A_0
    "interleaving": (
        lambda s, p, D: ({"B_1": s["A_0"] - 1}, {}),
        ("alternation", "interleaving", "rank 0: B_1 precedes A_0"),
        ORIENTED,
    ),
    # the closing cap starts just before B_1, and still ends after it
    "side-order": (
        lambda s, p, D: ({"lambda2": s["B_1"] - 1}, {}),
        ("side-order", "side-order", "machine 4 runs ['B', 'beta', 'b', 'lambda2', 'B']"),
        ALTERNATING,
    ),
    # on gen_yes(2, 0): both narrow pairs of block 1 through machine 2 and
    # both of block 2 through machine 3, each with its gamma or delta job,
    # which the machine contents allow, as they only count
    "pair-columns/shared": (
        lambda s, p, D: ({}, {"b_1": {2, 4}, "delta_1": {2}, "a_2": {1, 3}, "gamma_2": {3}}),
        ("pair-columns", "pair-columns", "a_1 and b_1 share machine [2]"),
        ALTERNATING,
    ),
    # delta_1 starts with b_1, which leaves a hole after A_0 on machine 3
    "zero-idle": (
        lambda s, p, D: ({"delta_1": s["b_1"]}, {}),
        ("zero-idle", "zero-idle", "machine 3: b_1 starts at {b_1}, hole ends {delta_1}"),
        [*ALTERNATING, {"stage": "pair-columns", "event": "ok"}],
    ),
}
# the z of each forgery that needs more than one block
WIDER = {"pair-columns/shared": 2}


@pytest.mark.parametrize("case", list(LEMMA_FORGERIES))
def test_each_lemma_refutes_its_forgery(case):
    forge, (stage, lemma, detail), events = LEMMA_FORGERIES[case]
    inst3p, witness = gen_yes(WIDER.get(case, 1), 0)
    inst = build_jobs(inst3p)
    sched = build_schedule(inst, witness)
    s, p = sched.starts, {j.id: j.p for j in inst.jobs}
    starts, machines = forge(s, p, inst.D)
    forged = Schedule(
        starts={**s, **starts},
        machines={**sched.machines, **{i: frozenset(ms) for i, ms in machines.items()}},
    )
    assert verify(inst, forged).makespan == inst.W
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3p, inst, forged)
    assert (exc.value.stage, exc.value.lemma) == (stage, lemma)
    assert exc.value.detail == detail.format_map({**s, "B_1 end": s["B_1"] + p["B_1"]})
    assert list(exc.value.events) == events


RESULT_CHECKS_UNDER_O = """
import sys
from gadgetforge import strip, synthesis
from gadgetforge.reduction import build_jobs, build_strip
from gadgetforge.threepartition import gen_yes

assert False, "this check runs under python -O only"
inst3, witness = gen_yes(2, 1)
red = build_jobs(inst3)
sched = synthesis.build_schedule(red, witness)
packing = synthesis.build_packing(build_strip(inst3), witness)
layout = synthesis.canonical_slots


def reordered(*pairs):
    # machine 1's sequence with each pair of slots exchanged
    def slots(inst, m):
        out = list(layout(inst, m))
        for x, y in pairs if m == 1 else ():
            i, j = out.index(x), out.index(y)
            out[i], out[j] = out[j], out[i]
        return out
    return slots


checks = iter([True, False])
feasible_once = lambda strip_, packing_: strip.PackingReport(
    feasible=next(checks), height=4, free_area=0, problems=()
)
patches = {
    "homes": (synthesis, "canonical_slots", lambda inst, m: layout(inst, m)[:-1] if m == 1 else layout(inst, m)),
    "starts": (synthesis, "canonical_slots", reordered((("a", 1), ("alpha", 1)))),
    "stall": (synthesis, "canonical_slots", reordered((("a", 1), ("A", 0)))),
    "normalize": (strip, "verify_packing", feasible_once),
}
calls = {
    "normalize": lambda: strip.normalize(build_strip(inst3), packing),
}
module, name, fake = patches[sys.argv[1]]
setattr(module, name, fake)
try:
    calls.get(sys.argv[1], lambda: synthesis.build_schedule(red, witness))()
except RuntimeError as exc:
    print(exc)
"""


# what each tampered step reports
RESULT_CHECK_ERRORS = {
    "homes": (
        "the synthesized schedule fails re-verification: "
        "not every job on q machines: A_2"
    ),
    "starts": (
        "the synthesized schedule fails re-verification: "
        "not one start per job on all its machines"
    ),
    "stall": (
        "the synthesized schedule fails re-verification: "
        "not one start per job on all its machines"
    ),
    "normalize": "the normalized packing fails re-verification: not feasible",
}


@pytest.mark.parametrize("step", list(RESULT_CHECK_ERRORS))
def test_result_checks_hold_under_python_O(step):
    # `python -O` strips asserts, so each check on a result is a raise
    env = dict(os.environ)
    src = str(Path(extraction.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", RESULT_CHECKS_UNDER_O, step],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.strip() == RESULT_CHECK_ERRORS[step]


# ===== normalize_machines =====


def test_normalize_is_noop_on_canonical(canonical_z1):
    _, inst, sched = canonical_z1
    out = normalize_machines(inst, sched)
    assert dict(out.starts) == dict(sched.starts)
    assert dict(out.machines) == dict(sched.machines)


@pytest.mark.parametrize(
    "perm",
    [
        {1: 4, 2: 3, 3: 2, 4: 1},
        {1: 3, 2: 1, 3: 4, 4: 2},
        {1: 2, 2: 4, 3: 1, 4: 3},
    ],
)
def test_normalize_restores_side_machines(canonical_z1, perm):
    _, inst, sched = canonical_z1
    before = verify(inst, sched)
    out = normalize_machines(inst, permuted(sched, perm))
    after = verify(inst, out)
    assert (after.feasible, after.makespan, after.idle) == (
        before.feasible,
        before.makespan,
        before.idle,
    )
    on = lambda m: {i for i, ms in out.machines.items() if m in ms}
    assert on(1) == {i for i, ms in sched.machines.items() if 1 in ms}
    assert on(4) == {i for i, ms in sched.machines.items() if 4 in ms}
    backbone = {j.id for j in inst.tagged("A", "B", "c")}
    assert backbone <= on(2) and backbone <= on(3)


def test_normalize_rejects_other_instance_schedule(canonical_z1):
    _, _, sched = canonical_z1
    other, _ = gen_yes(1, 99)
    with pytest.raises(NotTargetMakespan):
        normalize_machines(build_jobs(other), sched)


def test_a_stage_refutes_with_no_events_and_the_pipeline_adds_its_log(canonical_z1):
    # lambda1 moved onto middle machine 2, then machines 1 and 2 relabelled:
    # the separator walk swaps them back from t = 0, which returns lambda1
    # to machine 2, and the cap check fails after that logged swap.
    inst3p, inst, sched = canonical_z1
    machines = dict(sched.machines)
    machines["lambda1"] = frozenset({2})
    forged = permuted(Schedule(starts=sched.starts, machines=machines),
                      {1: 2, 2: 1, 3: 3, 4: 4})
    with pytest.raises(RefutationCertificate) as alone:
        normalize_machines(inst, forged)
    assert (alone.value.stage, alone.value.lemma) == ("normalize", "machine-contents")
    assert alone.value.events == ()
    with pytest.raises(RefutationCertificate) as piped:
        extract_partition(inst3p, inst, forged)
    assert str(piped.value) == str(alone.value)
    assert piped.value.to_dict()["events"] == [
        {"stage": "normalize", "event": "swap", "t": "0", "machines": [1, 2]}
    ]


def test_a_torn_second_pair_cut_logs_neither_swap_of_its_block(canonical_z1):
    # Machines 2 and 3 exchanged inside block 1, so the pair columns swap
    # them back at A_0 and at B_1; P_3, the last job before B_1 on machine
    # 3, is moved one unit later, so it straddles the second cut only.
    inst3p, inst, sched = canonical_z1
    t1, t2 = sched.starts["A_0"], sched.starts["B_1"]
    swapped = swap_after(inst, swap_after(inst, sched, t1, 2, 3), t2, 2, 3)
    starts = dict(swapped.starts)
    assert starts["P_3"] + inst.by_id["P_3"].p == t2
    starts["P_3"] += 1
    torn = Schedule(starts=starts, machines=swapped.machines)
    with pytest.raises(RefutationCertificate) as exc:
        extract_partition(inst3p, inst, torn)
    assert (exc.value.stage, exc.value.lemma) == ("pair-columns", "swap-crossing")
    assert f"P_3 crosses t={t2}" in exc.value.detail
    assert [e["stage"] for e in exc.value.events] == ["normalize", "orient", "alternation"]


# ===== the orient and alternation stages =====


def oriented(inst, sched):
    """`_orient` on `sched`, as the pipeline calls it, with its events."""
    events = []
    out = extraction._orient(inst, sched, extraction._lanes(inst, sched)[2], events)
    return out, events


def test_orient_keeps_forward_schedule(canonical_z1):
    _, inst, sched = canonical_z1
    out, events = oriented(inst, sched)
    assert out is sched
    assert events == [{"stage": "orient", "event": "ok"}]


def test_orient_mirrors_backward_schedule(canonical_z1):
    _, inst, sched = canonical_z1
    out, events = oriented(inst, mirror(inst, sched))
    assert dict(out.starts) == dict(sched.starts)
    assert dict(out.machines) == dict(sched.machines)
    assert events == [{"stage": "orient", "event": "mirror"}]


def test_alternation_sequences_on_canonical(canonical_z1):
    _, inst, sched = canonical_z1
    finished = finished_by_index(inst, sched)
    a_seq, b_seq = extraction._check_alternation(inst, sched, finished)
    assert a_seq == ("A_0", "A_1")
    assert b_seq == ("B_0", "B_1")
