"""The benchmark's four workloads.

Each workload turns a seed into inputs during set-up and returns one round:
a list of ops, each a closed-loop call into gadgetforge (or its CLI) that
checks its own result.  An op returns ``(ok, answered)``; the runner counts
an op that raises as failed.  Rounds are repeated whole, so every run sees
the same mix of ops.

The library is reached only through names exported from ``gadgetforge``
(passed in as ``lib``), and every call goes through ``ctx.call`` with the
layer name the traced run reports it under.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

# pipeline: five z=10 ops, where per-call overhead dominates, two z=40 and
# two z=80, where the quadratic layers dominate.  The weights put the median
# op inside the z=10 group and the tail inside the z=80 group.
PIPELINE_MIX = (10,) * 5 + (40,) * 2 + (80,) * 2

# decide-witness corpus: (z, contiguous, instance seeds).  Node counts of a
# plain search depend on the instance, so the corpus is a fixed list; the
# run seed only orders the ops.  Every search stops within a few thousand
# nodes: gen_yes(14, 3) needs 73,841 where the other z=14 seeds need about
# 610, so it belongs to decide-exhaust.  Sixteen ops are quicker than the
# eight z=6 ones and fifteen slower, so the median op is a z=6 decision;
# contiguous z=2 and plain z=10 take about as long as each other, and a
# median among them would flip between the two.
WITNESS_CORPUS = (
    (2, False, range(8)),
    (6, False, range(8)),
    (10, False, range(4)),
    (14, False, (0, 1, 2, 4, 5, 6, 7)),
    (1, True, range(8)),
    (2, True, range(4)),
)

# decide-exhaust corpus, fixed for the same reason: gen_no(2, s) needs 73,260
# contiguous nodes for s = 3 but 38,136 for some other s.  gen_yes(16, 0..11)
# is the starvation panel: seeds 3, 5, 6, 7 and 10 exhaust the cap in every
# root.  gen_yes(14, 3) is a deep search that ends in a witness.  The four
# quick digit traps put the median op among the seven gen_yes(16) seeds that
# find a witness within the cap, and the tail among the starving ones.
NO_Z, NO_SEED = 2, 3
TRAP_DS = (17, 29, 33, 41)
DEEP_Z, DEEP_SEED = 14, 3
STARVE_Z = 16
STARVE_SEEDS = range(12)
STARVE_CAP = 1_000
PROBE_CAP = 1_000
CAPS = {
    "decide-witness": "library default (10^7 per root)",
    f"gen_no({NO_Z}, {NO_SEED}), traps and gen_yes({DEEP_Z}, {DEEP_SEED})":
        "library default (10^7 per root)",
    f"gen_yes({STARVE_Z}, {STARVE_SEEDS.start}..{STARVE_SEEDS.stop - 1})": STARVE_CAP,
    "equations-off probe gen_yes(1, 5)": PROBE_CAP,
}

CLI_ZS = (1, 2, 3)
CLI_ROUNDTRIP_Z, CLI_ROUNDTRIP_TRIALS = 5, 1
CLI_SUBCOMMANDS = (
    "gen3p", "reduce", "reduce-strip", "synth", "verify",
    "audit", "extract", "decide", "render", "roundtrip",
)


class Ctx:
    """State shared by one workload's set-up and its ops."""

    def __init__(self, lib, tracer, seed: int, root: Path, workdir: Path):
        self.lib = lib
        self.tracer = tracer
        self.call = tracer.call
        self.rng = random.Random(seed)
        self.root = root
        self.workdir = workdir
        self.counts: Counter = Counter()
        self.peak_child_kb = 0
        self.env = {k: v for k, v in os.environ.items() if k != "GADGETFORGE_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def spawn(self, argv: list[str]) -> tuple[int, bytes]:
        """Run a child process to the end; returns (exit code, stdout) and
        records the child's peak resident memory."""
        child = subprocess.Popen(
            argv,
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        with child.stdout:
            out = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return child.returncode, out


# ----- pipeline -----


def _perturbation(rng: random.Random, inst3, kind: int):
    """One of the three perturbations of acceptance criterion 8."""
    z = inst3.z
    swappable = [
        (x, y)
        for x in range(3 * z)
        for y in range(x + 1, 3 * z)
        if inst3.values[x] != inst3.values[y]
    ]
    if kind == 0 and swappable:  # move value jobs between gaps
        x, y = rng.choice(swappable)
        return ("swap", f"P_{x + 1}", f"P_{y + 1}")
    if kind == 1:  # exchange the A/B separator order in one block
        i = rng.randrange(z)
        return ("swap", f"A_{i}", f"B_{i}")
    # cut the narrow filler loose from its slot by 1, D/2 or D
    return ("shift", f"gamma_{rng.randrange(1, z + 1)}", rng.randrange(3))


def _perturb(starts, perturbation, D: int) -> dict:
    starts = dict(starts)
    kind, a, b = perturbation
    if kind == "swap":
        starts[a], starts[b] = starts[b], starts[a]
    else:
        starts[a] += (1, D // 2, D)[b]
    return starts


def _codec_roundtrip(lib, inst, sched) -> bool:
    """decompose/compose every checkpoint (2- and 3-machine job) start."""
    ok = True
    for job in inst.jobs:
        if job.q > 1:
            start = sched.starts[job.id]
            ok &= lib.compose(lib.decompose(start, inst.z, inst.D), inst.D) == start
    return ok


def _pipeline_op(ctx: Ctx, inst3, witness, perturbation):
    lib, call = ctx.lib, ctx.call
    inst = call("reduction.build_jobs", lib.build_jobs, inst3)
    strip = call("reduction.build_strip", lib.build_strip, inst3)
    ok = call("reduction.recognize", lib.recognize, inst) == (inst3.z, inst3.D)
    forced = call("reduction.forced_starts", lib.forced_starts, inst)

    sched = call("synthesis.build_schedule", lib.build_schedule, inst, witness)
    packing = call("synthesis.build_packing", lib.build_packing, strip, witness)
    ok &= all(sched.starts[job_id] == t for job_id, t in forced.items())

    report = call("schedule.verify", lib.verify, inst, sched)
    ok &= report.feasible and report.makespan == inst.W and report.idle == 0
    ok &= call("schedule.audit", lib.audit, inst, sched).passed
    text = call("schedule.json", sched.to_json)
    ok &= call("schedule.json", lib.Schedule.from_json, text) == sched
    text = call("schedule.json", inst.to_json)
    ok &= call("schedule.json", lib.SchedulingInstance.from_json, text).to_json() == text
    mirrored = call("schedule.mirror", lib.mirror, inst, sched)

    found, _ = call("extraction.extract", lib.extract_partition, inst3, inst, sched)
    found_m, trace_m = call(
        "extraction.extract", lib.extract_partition, inst3, inst, mirrored
    )
    ok &= found == witness and found_m == witness and trace_m.mirrored

    laid = call("strip.bridge", lib.schedule_to_packing, inst, sched)
    ok &= laid == packing
    ok &= call("strip.bridge", lib.packing_to_schedule, inst, laid) == sched
    prep = call("strip.verify_packing", lib.verify_packing, strip, packing)
    ok &= prep.feasible and prep.height == 4 and prep.free_area == 0
    settled = call("strip.normalize", lib.normalize, strip, packing)
    prep = call("strip.verify_packing", lib.verify_packing, strip, settled)
    ok &= prep.feasible and prep.height == 4

    for layer, fn, args in (
        ("render.schedule_svg", lib.render_schedule_svg, (inst, sched)),
        ("render.packing_svg", lib.render_packing_svg, (strip, packing)),
    ):
        svg = call(layer, fn, *args)
        ok &= svg.startswith("<svg") and svg.endswith("</svg>")
        ctx.counts["svg_bytes"] += len(svg.encode())
    ok &= call("exactnum.codec", _codec_roundtrip, lib, inst, sched)

    bad = lib.Schedule(
        starts=_perturb(sched.starts, perturbation, inst.D), machines=sched.machines
    )
    ctx.counts["perturbed"] += 1
    try:
        call("extraction.refute", lib.extract_partition, inst3, inst, bad)
        ok = False  # a perturbed schedule must never yield a partition
    except lib.RefutationCertificate:
        ctx.counts["refuted"] += 1
    except ValueError as exc:
        if type(exc).__name__ != "NotTargetMakespan":
            raise
    return ok, True


def pipeline(ctx: Ctx):
    ops = []
    for slot, z in enumerate(PIPELINE_MIX):
        inst3, witness = ctx.call(
            "threepartition.gen_yes", ctx.lib.gen_yes, z, ctx.rng.randrange(10**9)
        )
        perturbation = _perturbation(ctx.rng, inst3, slot % 3)
        ops.append((f"z{z}", partial(_pipeline_op, ctx, inst3, witness, perturbation), True))
    ctx.rng.shuffle(ops)
    return ops


# ----- decisions -----


def _decide_op(ctx: Ctx, inst, target, contiguous, expect, **kwargs):
    lib, call = ctx.lib, ctx.call
    decision = call("solver.decide", lib.decide_target, inst, target, contiguous, **kwargs)
    ctx.counts["nodes"] += decision.nodes
    for rule, n in decision.prunes.items():
        ctx.counts[f"prune:{rule}"] += n
    ok = decision.outcome in expect
    if decision.outcome == "witness":
        report = call("schedule.verify", lib.verify, inst, decision.schedule)
        ok &= report.feasible and report.makespan == target and report.idle == 0
        ok &= report.contiguous or not contiguous
    return ok, decision.outcome in ("witness", "proved-none")


def _reduced_yes(ctx: Ctx, z: int, seed: int):
    inst3, _ = ctx.call("threepartition.gen_yes", ctx.lib.gen_yes, z, seed)
    return ctx.call("reduction.build_jobs", ctx.lib.build_jobs, inst3)


def decide_witness(ctx: Ctx):
    ops = []
    for z, contiguous, seeds in WITNESS_CORPUS:
        for seed in seeds:
            inst = _reduced_yes(ctx, z, seed)
            label = f"yes({z},{seed}){'c' if contiguous else ''}"
            op = partial(_decide_op, ctx, inst, inst.W, contiguous, {"witness"})
            ops.append((label, op, True))
    ctx.rng.shuffle(ops)
    return ops


def digit_trap(lib, D: int):
    """Four D^3 jobs and smalls {3,3,3,3,2,2}·D^2 against target D^3 + 4D^2:
    no witness exists (the trap of tests/test_solver.py, where D = 33).  At
    D = 33 and 41 only the coefficient rule sees the overflowing digit early
    (782 nodes); at D = 17 and 29 it does not fire and the search ends on
    no-fit prunes alone (3,346 nodes)."""
    dims = [D**3] * 4 + [3 * D**2] * 4 + [2 * D**2] * 2
    jobs = tuple(
        lib.Job(id=f"J{i:02d}", p=p, q=1, tag="J", index=i) for i, p in enumerate(dims)
    )
    return lib.SchedulingInstance(m=4, z=1, D=D, W=0, jobs=jobs), D**3 + 4 * D**2


def decide_exhaust(ctx: Ctx):
    lib = ctx.lib
    no3p = ctx.call("threepartition.gen_no", lib.gen_no, NO_Z, NO_SEED)
    no = ctx.call("reduction.build_jobs", lib.build_jobs, no3p)
    ops = [
        (f"no({NO_Z},{NO_SEED})c", partial(_decide_op, ctx, no, no.W, True, {"proved-none"}), True),
        (f"no({NO_Z},{NO_SEED})", partial(_decide_op, ctx, no, no.W, False, {"proved-none"}), True),
    ]
    for D in TRAP_DS:
        trap, target = digit_trap(lib, D)
        op = partial(_decide_op, ctx, trap, target, False, {"proved-none"})
        ops.append((f"trap(D={D})", op, True))
    deep = _reduced_yes(ctx, DEEP_Z, DEEP_SEED)
    op = partial(_decide_op, ctx, deep, deep.W, False, {"witness"})
    ops.append((f"yes({DEEP_Z},{DEEP_SEED})", op, True))
    for seed in STARVE_SEEDS:
        inst = _reduced_yes(ctx, STARVE_Z, seed)
        op = partial(
            _decide_op, ctx, inst, inst.W, False, {"witness", "budget-exceeded"},
            budget=STARVE_CAP,
        )
        ops.append((f"yes({STARVE_Z},{seed})", op, True))
    probe = _reduced_yes(ctx, 1, 5)
    op = partial(
        _decide_op, ctx, probe, probe.W, False, {"witness", "budget-exceeded"},
        budget=PROBE_CAP, rules=lib.PruneRules(equations=False),
    )
    ops.append(("yes(1,5)/equations-off", op, False))
    ctx.rng.shuffle(ops)
    return ops


# ----- cli -----


def _canonical(payload):
    return json.loads(json.dumps(payload))


def _cli_op(ctx: Ctx, name: str, args: list[str], expected, svg_path=None, svg=None):
    argv = [sys.executable, "-m", "gadgetforge.cli", *args]
    with ctx.tracer.span(f"cli.{name}"):
        code, out = ctx.spawn(argv)
    lines = out.decode("utf-8").splitlines()
    ok = code == 0 and len(lines) == 1 and json.loads(lines[0]) == expected
    if svg_path is not None:
        ok &= (ctx.root / svg_path).read_text(encoding="utf-8") == svg
    return ok, code in (0, 1)


def _roundtrip_expected(lib, z: int, trials: int, seed: int = 0) -> dict:
    """What `gadgetforge roundtrip` must report, recomputed in-process."""
    passes, failures = 0, []
    for k in range(trials):
        inst3, planted = lib.gen_yes(z, seed + k)
        inst = lib.build_jobs(inst3)
        sched = lib.build_schedule(inst, planted)
        report = lib.verify(inst, sched)
        found, _ = lib.extract_partition(inst3, inst, sched)
        ok = (
            report.feasible and report.makespan == inst.W and report.idle == 0
            and report.contiguous and lib.audit(inst, sched).passed and found == planted
        )
        if ok:
            passes += 1
        else:
            failures.append(k)
    return {"z": z, "trials": trials, "passes": passes, "failures": failures}


def cli(ctx: Ctx):
    lib = ctx.lib
    work = ctx.workdir / "cli"
    work.mkdir(parents=True, exist_ok=True)
    ops = []
    for z in CLI_ZS:
        seed = ctx.rng.randrange(10**6)
        inst3, witness = ctx.call("threepartition.gen_yes", lib.gen_yes, z, seed)
        inst = lib.build_jobs(inst3)
        strip = lib.build_strip(inst3)
        sched = lib.build_schedule(inst, witness)
        svg = lib.render_schedule_svg(inst, sched)
        partition, _ = lib.extract_partition(inst3, inst, sched)
        sets = [list(s) for s in witness]

        def put(name: str, text: str) -> str:
            path = work / f"z{z}_{name}"
            path.write_text(text, encoding="utf-8")
            return str(path.relative_to(ctx.root))

        p3 = put("3p.json", inst3.to_json())
        pw = put("witness.json", json.dumps({"sets": sets}))
        pi = put("inst.json", inst.to_json())
        ps = put("sched.json", sched.to_json())
        svg_path = str((work / f"z{z}_fig.svg").relative_to(ctx.root))
        on = ["--inst", pi, "--sched", ps]
        cases = [
            ("gen3p", ["gen3p", "--yes", "--z", str(z), "--seed", str(seed)],
             {"instance": json.loads(inst3.to_json()), "witness": sets}),
            ("reduce", ["reduce", "--in", p3], json.loads(inst.to_json())),
            ("reduce-strip", ["reduce", "--in", p3, "--strip"], json.loads(strip.to_json())),
            ("synth", ["synth", "--inst", pi, "--witness", pw], json.loads(sched.to_json())),
            ("verify", ["verify", *on], lib.verify(inst, sched).to_dict()),
            ("audit", ["audit", *on], lib.audit(inst, sched).to_dict()),
            ("extract", ["extract", *on], {"sets": [list(s) for s in partition]}),
            ("decide", ["decide", "--inst", pi, "--target-w"],
             lib.decide_target(inst, inst.W).to_dict()),
        ]
        for name, args, expected in cases:
            ops.append((name, partial(_cli_op, ctx, name, args, _canonical(expected)), True))
        render = partial(
            _cli_op, ctx, "render", ["render", *on, "--out", svg_path],
            {"out": svg_path, "bytes": len(svg.encode())}, svg_path, svg,
        )
        ops.append(("render", render, True))
    args = ["roundtrip", "--z", str(CLI_ROUNDTRIP_Z), "--trials", str(CLI_ROUNDTRIP_TRIALS)]
    expected = _roundtrip_expected(lib, CLI_ROUNDTRIP_Z, CLI_ROUNDTRIP_TRIALS)
    ops.append(("roundtrip", partial(_cli_op, ctx, "roundtrip", args, expected), True))
    ctx.rng.shuffle(ops)
    return ops

WORKLOADS = {
    "pipeline": pipeline,
    "decide-witness": decide_witness,
    "decide-exhaust": decide_exhaust,
    "cli": cli,
}
