"""Job-table construction: lengths, totals, forced geometry.

Length literals for z=1, D=33 were computed by hand first and frozen here;
identities are restated in terms of plain exponent arithmetic so the module
under test never supplies its own expected values.
"""

import dataclasses
import json

import pytest

from gadgetforge import reduction, solver
from gadgetforge.exactnum import CoeffVector, InvalidInput, decompose
from gadgetforge.extraction import extract_partition
from gadgetforge.reduction import (
    CANONICAL_LAYOUT,
    CHECKPOINT_TAGS,
    Job,
    SchedulingInstance,
    StripInstance,
    build_jobs,
    build_strip,
    canonical_ids,
    canonical_slots,
    forced_starts,
    forward_geometry,
    recognize,
    recover_values,
    chain_values,
)
from gadgetforge.schedule import audit, mirror, verify
from gadgetforge.solver import PruneRules, decide_target
from gadgetforge.strip import normalize, verify_packing
from gadgetforge.synthesis import build_packing, build_schedule
from gadgetforge.threepartition import ThreePartitionInstance, gen_yes

from conftest import count_finished_by, record_builds

# (10, 11, 12) gives z=1, D=33, and 33 > 32 = 4z(7z+1): reduction-ready as is.
INST_D33 = ThreePartitionInstance((10, 11, 12))


def test_d33_is_reduction_ready():
    assert INST_D33.z == 1 and INST_D33.D == 33
    build_jobs(INST_D33)


# ===== hand-derived length literals (z=1, D=33) =====


def test_lengths_z1_d33():
    inst = build_jobs(INST_D33)
    D = 33
    expected = {
        "A_0": D**2,
        "A_1": D**2,
        "B_0": D**3,
        "B_1": D**3,
        "a_1": D**4 + D**6 + 3 * D**7,
        "b_1": D**5 + D**6 + 3 * D**7,
        "c_0": D**7 + D**8,
        "c_1": 2 * D**7 + D**8,
        "alpha_1": D**3 + D**5 + 4 * D**7 + D**8,
        "beta_1": D**2 + D**4 + 3 * D**7 + D**8,
        "gamma_1": D**5 + 2 * D**7 - D,
        "delta_1": D**4 + 2 * D**7,
        "lambda1": D**3 + D**7 + D**8,
        "lambda2": D**2 + 2 * D**7 + D**8,
        "P_1": 10,
        "P_2": 11,
        "P_3": 12,
    }
    assert {j.id: j.p for j in inst.jobs} == expected


def test_machine_counts_z1():
    inst = build_jobs(INST_D33)
    by_q = {1: set(), 2: set(), 3: set()}
    for j in inst.jobs:
        by_q[j.q].add(j.tag)
    assert by_q[3] == {"A", "B"}
    assert by_q[2] == {"a", "b", "c"}
    assert by_q[1] == {
        "alpha",
        "beta",
        "gamma",
        "delta",
        "lambda1",
        "lambda2",
        "P",
    }


def test_job_count_is_12z_plus_5():
    for z in (1, 2, 3, 5):
        inst, _ = gen_yes(z, 0)
        assert len(build_jobs(inst).jobs) == 12 * z + 5


def test_target_makespan_z1_d33():
    D = 33
    want = (
        2 * (D**2 + D**3 + D**8)
        + (D**4 + D**5 + D**6)
        + 8 * D**7
    )
    assert build_jobs(INST_D33).W == want


# ===== structural identities =====


@pytest.fixture(scope="module", params=[(1, 4), (2, 9), (3, 2), (4, 0)])
def generated(request):
    z, seed = request.param
    inst, witness = gen_yes(z, seed)
    return inst, build_jobs(inst)


def test_total_work_is_four_targets(generated):
    inst3p, sched = generated
    assert sched.total_work == 4 * sched.W


def test_target_digit_pattern(generated):
    _, sched = generated
    z = sched.z
    assert decompose(sched.W, z, sched.D) == CoeffVector(
        x2=z + 1, x3=z + 1, x4=z, x5=z, x6=z, x7=z * (7 * z + 1), x8=z + 1
    )


def test_every_length_decomposes(generated):
    _, sched = generated
    for job in sched.jobs:
        decompose(job.p, sched.z, sched.D)


def test_one_machine_side_loads(generated):
    # The left side (A, a, alpha, lambda1) and the right side (B, b, beta,
    # lambda2) each exactly fill one machine.
    _, sched = generated
    left = sum(j.p for j in sched.tagged("A", "a", "alpha", "lambda1"))
    right = sum(j.p for j in sched.tagged("B", "b", "beta", "lambda2"))
    assert left == sched.W
    assert right == sched.W


def test_forced_start_tiling(generated):
    _, sched = generated
    z, D, W = sched.z, sched.D, sched.W
    starts = forced_starts(sched)
    p = {j.id: j.p for j in sched.jobs}

    assert starts["lambda1"] == 0
    assert starts["B_0"] == 0
    assert starts["lambda2"] + p["lambda2"] == W
    assert starts[f"A_{z}"] + p[f"A_{z}"] == W
    assert starts[f"c_{z}"] + p[f"c_{z}"] == starts[f"A_{z}"]
    assert starts["lambda1"] + p["lambda1"] == starts["A_0"]
    for i in range(1, z + 1):
        # machine carrying B/beta/b tiles exactly
        assert starts[f"beta_{i}"] == starts[f"B_{i-1}"] + p[f"B_{i-1}"]
        assert starts[f"b_{i}"] == starts[f"beta_{i}"] + p[f"beta_{i}"]
        assert starts[f"b_{i}"] + p[f"b_{i}"] == starts[f"B_{i}"]
        # delta bridges the A separator to the b pair
        assert starts[f"delta_{i}"] == starts[f"A_{i-1}"] + p[f"A_{i-1}"]
        assert starts[f"delta_{i}"] + p[f"delta_{i}"] == starts[f"b_{i}"]
        # a then alpha tile from the A separator
        assert starts[f"a_{i}"] == starts[f"A_{i-1}"] + p[f"A_{i-1}"]
        assert starts[f"alpha_{i}"] == starts[f"a_{i}"] + p[f"a_{i}"]
        assert starts[f"alpha_{i}"] + p[f"alpha_{i}"] == starts[f"A_{i}"]
        # c sits flush between the separators
        assert starts[f"c_{i}"] == starts[f"B_{i}"] + p[f"B_{i}"]
        assert starts[f"c_{i}"] + p[f"c_{i}"] == starts[f"A_{i}"]


def test_gamma_window_and_gaps(generated):
    _, sched = generated
    z, D = sched.z, sched.D
    starts = forced_starts(sched)
    geometry = forward_geometry(sched)
    gammas = geometry.starts["gamma"]
    assert [gamma.index for _, gamma in gammas] == list(range(1, z + 1))
    assert len(geometry.gaps) == z
    for (lo, gamma), (gap_lo, gap_hi) in zip(gammas, geometry.gaps):
        j = gamma.index
        assert lo == starts[f"alpha_{j}"]  # gamma opens with alpha's start
        assert gap_lo == lo
        assert gap_hi == starts[f"B_{j}"]
        # the gap fits gamma plus exactly D worth of P jobs
        assert gap_hi - gap_lo == gamma.p + D


def _last_job_dropped():
    built = build_jobs(gen_yes(2, 0)[0])
    return dataclasses.replace(built, jobs=built.jobs[:-1])


@pytest.mark.parametrize(
    "make",
    [
        lambda: SchedulingInstance(m=4, z=0, D=0, W=5, jobs=(Job("J", 5, 4, "J"),)),
        _last_job_dropped,
    ],
    ids=["one-job", "last-job-dropped"],
)
def test_forced_starts_refuses_what_recognize_rejects(make):
    """The forced starts are those of a reduction instance: on any other
    instance they are refused, as the audit, synthesis and extraction
    refuse it, not returned as starts no schedule of it need meet."""
    inst = make()
    assert recognize(inst) is None
    with pytest.raises(
        InvalidInput, match="^forced_starts needs an unmodified reduction instance$"
    ):
        forced_starts(inst)


# ===== parameter policing =====


def test_unscaled_instance_rejected():
    unscaled = r"^D=30 must exceed 4z\(7z\+1\)=32; scale the instance first$"
    with pytest.raises(InvalidInput, match=unscaled):
        build_jobs(ThreePartitionInstance((9, 10, 11)))  # D = 30 <= 32


def test_recognize_lets_a_fault_of_build_jobs_escape(monkeypatch):
    """Only a refused input makes an instance no reduction: a bare
    ValueError inside the evaluation of the closed forms, which
    `build_jobs` and `recognize` share, is a fault and escapes
    `recognize`."""
    inst = build_jobs(gen_yes(1, 0)[0])

    def faulty(z, D):
        raise ValueError("a fault")

    monkeypatch.setattr(reduction, "evaluate", faulty)
    with pytest.raises(ValueError, match="^a fault$"):
        recognize(inst)


def test_invalid_instance_rejected():
    with pytest.raises(InvalidInput, match=r"^value #1 = 8 violates 4\*value > D = 33$"):
        build_jobs(ThreePartitionInstance((8, 12, 13)))


# ===== recognition and serialization =====


def test_recognize_roundtrip(generated):
    inst3p, sched = generated
    assert recognize(sched) == (sched.z, sched.D)
    assert recover_values(sched) == inst3p


def test_recognize_rejects_tampering():
    sched = build_jobs(INST_D33)
    jobs = list(sched.jobs)
    jobs[0] = Job(id="A_0", p=jobs[0].p + 1, q=3, tag="A", index=0)
    tampered = SchedulingInstance(
        m=sched.m, z=sched.z, D=sched.D, W=sched.W, jobs=tuple(jobs)
    )
    assert recognize(tampered) is None


@pytest.mark.parametrize(
    "index_of",
    [
        lambda j: 2 if j.id == "gamma_1" else j.index,
        lambda j: None if j.tag == "P" else j.index,
    ],
    ids=["gamma_1-index-2", "P-index-none"],
)
def test_recognize_checks_every_index(index_of):
    """A job whose index disagrees with its id makes the instance no
    reduction instance, so the synthesizer refuses it up front instead of
    missing a slot later."""
    inst3, witness = gen_yes(2, 3)
    built = build_jobs(inst3)
    jobs = tuple(dataclasses.replace(j, index=index_of(j)) for j in built.jobs)
    inst = dataclasses.replace(built, jobs=jobs)
    assert recognize(inst) is None
    with pytest.raises(ValueError, match="needs an unmodified reduction instance"):
        build_schedule(inst, witness)


def test_recognition_is_worked_out_once_per_instance(monkeypatch):
    """Every gate on one instance object reads one recognition: a single
    comparison with the job table serves them all."""
    inst3, witness = gen_yes(2, 3)
    inst = build_jobs(inst3)
    builds = record_builds(monkeypatch, recognize)
    assert recognize(inst) == (inst.z, inst.D)
    assert forced_starts(inst)["lambda1"] == 0
    sched = build_schedule(inst, witness)
    assert audit(inst, sched).passed
    for given_sched in (sched, mirror(inst, sched)):
        partition, _ = extract_partition(inst3, inst, given_sched)
        assert {frozenset(s) for s in partition} == {frozenset(s) for s in witness}
    assert decide_target(inst, inst.W).outcome == "witness"
    assert [(name, each is inst) for name, each, _ in builds] == [("recognize", True)]


def test_each_derived_fact_is_built_once_per_instance_and_arguments(monkeypatch):
    """Synthesis, extraction and decisions under two rule sets, run twice
    on an instance and on an equal `dataclasses.replace` copy, build each
    derived fact once per (instance, arguments): the copy builds its own.
    A full memo changes neither `==` nor `hash`, and `dir` still lists the
    instance's attributes."""
    inst3, witness = gen_yes(2, 3)
    inst = build_jobs(inst3)
    copy = dataclasses.replace(inst)
    before = hash(inst)
    facts = (forward_geometry, canonical_slots, canonical_ids, solver._plan)
    builds = record_builds(monkeypatch, *facts)
    for each in (inst, copy, inst, copy):
        sched = build_schedule(each, witness)
        extract_partition(inst3, each, mirror(each, sched))
        for symmetry in (True, False):
            rules = PruneRules(symmetry=symmetry)
            decide_target(each, each.W, budget=30, rules=rules)
    machines = [(m,) for m in CANONICAL_LAYOUT]
    want = [
        ("forward_geometry", ()),
        *(("canonical_slots", m) for m in machines),
        *(("canonical_ids", m) for m in machines),
        ("_plan", (True, True)),
        ("_plan", (False, True)),
    ]
    for each in (inst, copy):
        built = [(name, args) for name, i, args in builds if i is each]
        assert sorted(built) == sorted(want)
    assert inst == copy and hash(inst) == hash(copy) == before
    assert "by_id" in dir(inst)


def test_total_work_is_kept_per_instance():
    """`total_work` is worked out once per instance and kept on it; a
    `dataclasses.replace` copy with other jobs works out its own."""
    inst = build_jobs(INST_D33)
    assert inst.total_work == 4 * inst.W
    assert inst.__dict__["total_work"] == 4 * inst.W
    first, *rest = inst.jobs
    copy = dataclasses.replace(inst, jobs=tuple(rest))
    assert copy.total_work == 4 * inst.W - first.p * first.q
    assert inst.total_work == 4 * inst.W


def test_by_slot_is_read_only_and_names_every_job(generated):
    _, inst = generated
    assert len(inst.by_slot) == len(inst.jobs)
    assert all(inst.by_slot[j.tag, j.index] is j for j in inst.jobs)
    with pytest.raises(TypeError):
        inst.by_slot["gamma", 1] = inst.jobs[0]


def test_scheduling_json_roundtrip():
    sched = build_jobs(INST_D33)
    text = sched.to_json()
    assert '"p":"' in text  # big values travel as decimal strings
    back = SchedulingInstance.from_json(text)
    assert back.to_json() == text
    assert back == sched


def test_an_id_whose_tail_is_not_decimal_loads_without_an_index():
    # "²" passes str.isdigit but int() cannot read it
    text = json.dumps({
        "m": 4, "z": 0, "D": "0", "W": "4",
        "jobs": [
            {"id": "x_²", "p": "4", "q": 2, "tag": "J"},
            {"id": "y_7", "p": "4", "q": 2, "tag": "J"},
        ],
    })
    inst = SchedulingInstance.from_json(text)
    assert [j.index for j in inst.jobs] == [None, 7]


@pytest.mark.parametrize(
    "jobs, message",
    [
        ([("J", "4", 4), ("J", "4", 4)], "used twice"),
        ([("J", "-2", 1)], "nonpositive length -2"),
        ([("J", "4", 5)], "needs 5 of 4"),
    ],
)
def test_json_loaders_reject_malformed_jobs(jobs, message):
    text = json.dumps({
        "m": 4, "z": 0, "D": "0", "W": "4",
        "jobs": [{"id": i, "p": p, "q": q, "tag": "J"} for i, p, q in jobs],
    })
    with pytest.raises(ValueError, match=message):
        SchedulingInstance.from_json(text)
    strip = json.dumps({
        "width": "4", "z": 0, "D": "0",
        "items": [{"id": i, "w": p, "h": q, "tag": "J"} for i, p, q in jobs],
    })
    with pytest.raises(ValueError, match=message):
        StripInstance.from_json(strip)


@pytest.mark.parametrize(
    "key, value",
    [
        ("z", "x"), ("D", 1.5), ("W", None), ("W", "-"),
        ("z", "missing"), ("D", "missing"),
    ],
)
def test_a_bad_job_is_named_before_a_bad_field_after_the_jobs(key, value):
    """z, D and W are read after the jobs are checked, so a document with a
    bad job and a bad or missing z, D or W is refused for the job, and with
    good jobs for the field."""
    payload = {"m": 4, "z": 1, "D": "33", "W": "4", key: value}
    if value == "missing":
        del payload[key]
    bad_job = {"id": "J", "p": "4", "q": 5, "tag": "J"}
    good_job = {**bad_job, "q": 4}
    for job, message in ((bad_job, "needs 5 of 4"), (good_job, f"\\b{key}\\b")):
        with pytest.raises(InvalidInput, match=message):
            SchedulingInstance.from_json(json.dumps({**payload, "jobs": [job]}))


def test_a_loaded_instance_checks_its_jobs_once(monkeypatch):
    """`from_json` checks the jobs through `check_instance`, so the check is
    kept: loading, verifying and deciding one instance run `check_jobs`
    once."""
    inst3, witness = gen_yes(2, 3)
    text = build_jobs(inst3).to_json()
    calls = []
    real = reduction.check_jobs
    monkeypatch.setattr(
        reduction, "check_jobs", lambda jobs, m: calls.append(m) or real(jobs, m)
    )
    inst = SchedulingInstance.from_json(text)
    assert verify(inst, build_schedule(inst, witness)).feasible
    assert decide_target(inst, inst.W).outcome == "witness"
    assert calls == [4]


def _fields(inst):
    return inst.m, inst.z, inst.D, inst.W, inst.jobs


def test_strip_items_mirror_jobs():
    strip = build_strip(INST_D33)
    sched = build_jobs(INST_D33)
    assert strip.W == sched.W
    assert strip.total_work == 4 * sched.W
    assert all(j.p < strip.W for j in strip.jobs)
    assert _fields(strip) == _fields(sched)
    # both JSON forms of one reduction load to the same instance
    assert _fields(StripInstance.from_json(strip.to_json())) == _fields(sched)
    assert _fields(SchedulingInstance.from_json(sched.to_json())) == _fields(sched)
    # the packing checkers take a plain scheduling instance as the strip
    packing = build_packing(sched, ((1, 2, 3),))
    report = verify_packing(sched, packing)
    assert report.feasible and report.height == 4 and report.free_area == 0
    assert normalize(sched, packing) == packing


def test_strip_json_roundtrip():
    forms = [
        (build_strip(INST_D33), StripInstance, "width items w h"),
        (build_jobs(INST_D33), SchedulingInstance, "m W jobs p q"),
    ]
    for inst, cls, keys in forms:
        text = inst.to_json()
        payload = json.loads(text)
        *top, jobs, p, q = keys.split()
        assert set(payload) == {"z", "D", *top, jobs}
        assert all(set(j) == {"id", p, q, "tag"} for j in payload[jobs])
        assert cls.from_json(text).to_json() == text


# ===== the canonical shape, against the hand-built z=1 schedule =====


def test_layout_reproduces_every_machine_of_the_fixture(canonical_z1):
    _, inst, sched = canonical_z1
    for m in CANONICAL_LAYOUT:
        on_m = sorted(
            (jid for jid, ms in sched.machines.items() if m in ms),
            key=lambda jid: sched.starts[jid],
        )
        assert canonical_ids(inst, m) == set(on_m)
        # read in start order, the fixture runs the layout's tag sequence;
        # the one value slot holds the block's three value jobs
        tags = []
        for jid in on_m:
            tag = inst.by_id[jid].tag
            if tag != "P" or tags[-1] != "P":
                tags.append(tag)
        assert tags == [tag for tag, _ in canonical_slots(inst, m)]


def test_count_chains_hold_at_every_checkpoint_of_the_fixture(canonical_z1):
    _, inst, sched = canonical_z1
    checkpoints = [j for j in inst.jobs if j.tag in CHECKPOINT_TAGS]
    assert len(checkpoints) == 5 * inst.z + 3
    for job in checkpoints:
        t = sched.starts[job.id]
        count = lambda tag: count_finished_by(
            inst, sched, t, [j.id for j in inst.tagged(tag)]
        )
        values = chain_values(job.tag, count)
        assert len(set(values.values())) == 1, (job.id, values)
