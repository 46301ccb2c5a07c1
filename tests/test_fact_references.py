"""The derived facts of an instance against their references in conftest:
recognition, the closed-form geometry and the solver's plans, each worked
out in one pass, agree with the rebuild-and-compare recognition, the
closed forms evaluated one power at a time and the plan that sorts each
forced start's jobs, on reductions at z = 1..16 and 80 and on
perturbations of them.
"""

import dataclasses
import random
from itertools import product

import pytest

from gadgetforge import solver
from gadgetforge.exactnum import InvalidInput
from gadgetforge.reduction import (
    FAMILIES,
    Job,
    SchedulingInstance,
    StripInstance,
    build_jobs,
    build_strip,
    check_jobs,
    evaluate,
    forced_starts,
    forward_geometry,
    recognize,
)
from gadgetforge.threepartition import gen_no, gen_yes

from conftest import (
    reference_build_jobs,
    reference_forced_starts,
    reference_gamma_window,
    reference_geometry,
    reference_length,
    reference_partition_gaps,
    reference_plan,
    reference_recognize,
)

SIZES = (*range(1, 17), 80)
RULES = tuple(product((True, False), repeat=2))


def _generated():
    """Each gen_yes and gen_no reduction of the differential by label."""
    out = {}
    for z in SIZES:
        out[f"yes({z})"] = build_jobs(gen_yes(z, z)[0])
        if z >= 2:
            out[f"no({z})"] = build_jobs(gen_no(z, z))
    return out


class _OtherJob(Job):
    """A job of another class, equal to a `Job` in every field."""


def _with_jobs(inst, jobs):
    return dataclasses.replace(inst, jobs=tuple(jobs))


def _perturbed():
    """Perturbations of two reductions by label: a length one off, a wrong
    index, a renamed id, a dropped or duplicated job, m, z, D or W changed,
    the jobs reordered, a job of another class, the strip form and JSON
    round trips."""
    out = {}
    for name, inst3 in (("yes(3)", gen_yes(3, 1)[0]), ("no(2)", gen_no(2, 3))):
        base = build_jobs(inst3)
        jobs = list(base.jobs)
        firsts = {}
        for k, j in enumerate(jobs):
            firsts.setdefault(j.tag, k)
        cases = {}

        def at(k, **changes):
            """The jobs with job k changed."""
            return jobs[:k] + [dataclasses.replace(jobs[k], **changes)] + jobs[k + 1 :]

        for tag, k in firsts.items():
            for step in (-1, 1):
                cases[f"{tag} p{step:+d}"] = at(k, p=jobs[k].p + step)
        for k, index in ((firsts["gamma"], 2), (firsts["P"], None), (0, 1)):
            cases[f"{jobs[k].id} index {index}"] = at(k, index=index)
        last = len(jobs) - 1
        for k, new_id in ((0, "A_00"), (firsts["lambda1"], "lambda1_0"), (last, "P_x")):
            cases[f"{jobs[k].id} renamed"] = at(k, id=new_id)
        cases["first dropped"] = jobs[1:]
        cases["a value dropped"] = jobs[:-1]
        cases["first duplicated"] = jobs + [jobs[0]]
        cases["a value twice"] = jobs[:-1] + [jobs[-2]]
        cases["reversed"] = jobs[::-1]
        cases["shuffled"] = random.Random(name).sample(jobs, len(jobs))
        other = _OtherJob(*dataclasses.astuple(jobs[0]))
        cases["another job class"] = [other, *jobs[1:]]
        for label, jobs_of in cases.items():
            out[f"{name} {label}"] = _with_jobs(base, jobs_of)
        fields = {
            "m": (3, 5),
            "z": (base.z + 1,),
            "D": (base.D + 1,),
            "W": (base.W - 1, base.W + 1),
        }
        for field, values in fields.items():
            for value in values:
                changed = dataclasses.replace(base, **{field: value})
                out[f"{name} {field}={value}"] = changed
        strip = build_strip(inst3)
        out[f"{name} strip"] = strip
        out[f"{name} json"] = SchedulingInstance.from_json(base.to_json())
        out[f"{name} strip json"] = StripInstance.from_json(strip.to_json())
    return out


CASES = {**_generated(), **_perturbed()}


def _checks(inst) -> bool:
    try:
        check_jobs(inst.jobs, inst.m)
    except InvalidInput:
        return False
    return True


def _by_id(plan: solver._Plan) -> dict:
    """The fields of `plan` in the form of `reference_plan`, with its
    rank-indexed fields mapped back to ids: each class's members (its run
    of ranks), each job's rank and each job's placement record."""
    jobs = plan.jobs
    shared = ("cls_p", "live", "left", "upto", "forced", "longest", "open_forced")
    return dict(
        members=tuple(jobs[a : a + n] for a, n in zip(plan.first, plan.cls_n)),
        rank={j.id: r for r, j in enumerate(jobs)},
        rec={j.id: e for j, e in zip(jobs, plan.rec, strict=True)},
        **{name: getattr(plan, name) for name in shared},
    )


@pytest.mark.parametrize("label", CASES)
def test_the_derived_facts_agree_with_their_references(label):
    """Recognition agrees on every case.  Where the instance is recognised,
    its geometry, forced starts, gamma windows, gaps and all four plans
    equal the references'; where it is not, `forced_starts` refuses it,
    and where its jobs pass the check, its two plans without the equation
    tables equal the references'."""
    inst = CASES[label]
    # a fresh copy, so that nothing kept on the shared case is read
    fresh = dataclasses.replace(inst)
    want = reference_recognize(inst)
    assert recognize(fresh) == want
    if want is not None:
        geometry = forward_geometry(fresh)
        assert geometry == reference_geometry(inst)
        assert forced_starts(fresh) == reference_forced_starts(inst)
        assert geometry.gaps == reference_partition_gaps(inst)
        gammas = geometry.starts["gamma"]
        assert [j.index for _, j in gammas] == list(range(1, inst.z + 1))
        for s, j in gammas:
            assert reference_gamma_window(inst, j.index) == (s, s + inst.D)
        for symmetry, equations in RULES:
            got = solver._plan(fresh, symmetry, equations)
            assert _by_id(got) == reference_plan(inst, symmetry, equations)
        return
    with pytest.raises(InvalidInput, match="^forced_starts needs an unmodified"):
        forced_starts(fresh)
    if _checks(inst):
        for symmetry in (True, False):
            got = solver._plan(fresh, symmetry, False)
            assert _by_id(got) == reference_plan(inst, symmetry, False)


def test_the_perturbations_are_mostly_refused():
    """The differential covers both verdicts: every generated reduction is
    recognised, and of the perturbations only the reorderings, the strip
    form and the JSON round trips are."""
    kept = ("reversed", "shuffled", "strip", "json", "strip json")
    for label, inst in CASES.items():
        generated = label.split()[0] == label
        recognised = recognize(dataclasses.replace(inst)) is not None
        assert recognised == (generated or label.split(" ", 1)[1] in kept), label


@pytest.mark.parametrize("z", SIZES)
def test_the_job_table_agrees_with_its_reference(z):
    """`build_jobs` on one power table gives the jobs and W of the lengths
    written one power at a time, and so does `evaluate` at every index."""
    for inst3 in (gen_yes(z, z)[0], *((gen_no(z, z),) if z >= 2 else ())):
        built, want = build_jobs(inst3), reference_build_jobs(inst3)
        assert (built.m, built.z, built.D, built.W, built.jobs) == (
            want.m, want.z, want.D, want.W, want.jobs
        )
        forms = evaluate(z, inst3.D)
        assert forms.W == want.W
        for tag, (_, first, _) in FAMILIES.items():
            base, step = forms.lengths[tag]
            for index in range(first or 0, z + 1):
                assert base + index * step == reference_length(tag, z, inst3.D, index)
