"""A/B check and timing of the library's non-solver layers on the `pipeline`
workload.

    python3 tools/ab_pipeline.py OLD NEW [--rounds 10] [--seed 1]

OLD and NEW are checkouts of this repository, imported in one process
under the package names `gf_old` and `gf_new`, as in `tools/ab_decide.py`.
The inputs are the nine ops of the benchmark's `pipeline` workload for the
given seed, built by `perfbench/workloads.py` of the checkout this script
lives in, which is imported and not modified; each side builds its own copy
from its own `gen_yes`.

Before the timing, every input is run once through both checkouts, and each
of these documents must be byte-identical on both sides:

* the audit of the synthesized, the mirrored and the perturbed schedule:
  `AuditReport.to_dict()` and `to_dict()` of every row (or the error the
  audit raises);
* `VerifyReport.to_dict()` of the synthesized, the mirrored, the perturbed
  and the three swapped schedules below (or the error `verify` raises);
* `ExtractionTrace.to_dict()` of the synthesized and the mirrored schedule;
* the same, or the certificate, of three schedules that extraction swaps
  back (the workload's own inputs take no swap): the synthesized schedule
  with its machines relabelled by `RELABEL`; one whose machines 2 and 3
  are swapped inside block 1, from the start of A_0 to that of B_1; and
  one whose machines 1 and 2 are exchanged from the start of each A_i in
  turn, i = 0..z, which normalization undoes with z swaps, against at most
  two for a relabelling of the machines;
* the certificate of a fourth, the block-swapped schedule with the value
  job that ends at the start of B_1 moved one unit later: the pair
  columns' second cut in block 1 tears it, so extraction refutes it with
  a `[pair-columns] swap-crossing` certificate;
* `RefutationCertificate.to_dict()` of the perturbed schedule (or the error
  the extraction raises);
* the schedule and packing SVGs;
* the JSON of the schedule and the instance, and their round trips;
* the instance's `forced_starts`, which puts the forward geometry under
  the check at every size the workload builds.

That is 23 documents per input, 207 in all.  The script lists every
document that differs and stops.

Then each round runs every op once on each side, OLD first on even rounds
and NEW first on odd ones, timing every layer the op calls.  After its op,
each side also extracts the partition from the relabelled and the
block-swapped and block-relabelled schedule of that input, built before
the rounds, timed as the layers `extraction.relabelled`,
`extraction.block-swapped` and `extraction.block-relabelled`: no op of
the workload runs extraction's swap steps, and these three do.  The
script prints, per layer, the sum over the ops of each op's minimum time
in that layer over the rounds, for each side, and the ratio NEW/OLD; the
`op` row sums the workload's ops alone.  Beside it stands the spread of
that ratio over the rounds: each round's time in the layer, summed over
the ops, NEW over OLD, and the interquartile range of those ratios.  A
layer whose range covers 1.0 shows no difference this run can tell from
noise; an A/A run (OLD and NEW the same checkout) shows how wide the
ranges are on the host.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import Counter
from pathlib import Path

from ab_decide import HERE, _load, _spread

# machine k of the synthesized schedule becomes RELABEL[k]
RELABEL = {1: 4, 2: 3, 3: 2, 4: 1}


class _Timer:
    """Stands in for the benchmark's tracer: runs every call and adds its
    wall time to its layer."""

    def __init__(self):
        self.spent: Counter = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spent[layer] += time.perf_counter() - start


def _ops(workloads, lib, seed: int):
    """The pipeline ops against `lib` in workload order, as (label, op,
    inputs, swap inputs), and the timer they report to.  The swap inputs
    are the extraction arguments of each of `_swapped`'s schedules, by
    name."""
    timer = _Timer()
    ctx = workloads.Ctx(lib, timer, seed, HERE, HERE)
    ops = []
    for k, (label, op, _) in enumerate(workloads.pipeline(ctx)):
        _, inst3, witness, perturbation = op.args
        inst = lib.build_jobs(inst3)
        swaps = _swapped(lib, inst, lib.build_schedule(inst, witness))
        extracts = {name: (inst3, inst, s) for name, s in swaps.items()}
        ops.append((f"{k}:{label}", op, (inst3, witness, perturbation), extracts))
    return ops, timer


def _swapped(lib, inst, sched) -> dict:
    """The schedules that extraction swaps back, built from the
    synthesized `sched`: its machines relabelled by `RELABEL`, its
    machines 2 and 3 swapped from the start of A_0 to that of B_1, and its
    machines 1 and 2 exchanged from the start of each A_i in turn."""
    relabelled = lib.Schedule(
        starts=sched.starts,
        machines={j: frozenset(RELABEL[m] for m in ms) for j, ms in sched.machines.items()},
    )
    at = lambda tag, i: sched.starts[inst.by_slot[tag, i].id]
    swapped = sched
    for slot in (("A", 0), ("B", 1)):
        swapped = lib.swap_after(inst, swapped, at(*slot), 2, 3)
    blocks = sched
    for i in range(inst.z + 1):
        blocks = lib.swap_after(inst, blocks, at("A", i), 1, 2)
    return {"relabelled": relabelled, "block-swapped": swapped, "block-relabelled": blocks}


def _torn(lib, inst, swapped):
    """The block-swapped schedule `swapped` with the value job that ends
    at the start of B_1 moved one unit later, so that the pair columns'
    second cut in block 1 tears it."""
    cut = swapped.starts[inst.by_slot["B", 1].id]
    last = next(
        j.id for j in inst.tagged("P") if swapped.starts[j.id] + j.p == cut
    )
    starts = {**swapped.starts, last: swapped.starts[last] + 1}
    return lib.Schedule(starts=starts, machines=swapped.machines)


def _attempt(fn) -> str:
    """`fn()`'s document as JSON, or the error it raises."""
    try:
        return json.dumps(fn(), sort_keys=True)
    except Exception as exc:  # noqa: BLE001 - an error is a document too
        if hasattr(exc, "to_dict"):
            return json.dumps(exc.to_dict(), sort_keys=True)
        return f"{type(exc).__name__}: {exc}"


def _documents(workloads, lib, inst3, witness, perturbation) -> dict[str, str]:
    """Every output the gate compares, by name, for one input."""
    inst, strip = lib.build_jobs(inst3), lib.build_strip(inst3)
    sched = lib.build_schedule(inst, witness)
    packing = lib.build_packing(strip, witness)
    mirrored = lib.mirror(inst, sched)
    bad = lib.Schedule(
        starts=workloads._perturb(sched.starts, perturbation, inst.D),
        machines=sched.machines,
    )
    schedules = {"synthesized": sched, "mirrored": mirrored, "perturbed": bad}

    def audited(s):
        report = lib.audit(inst, s)
        return {**report.to_dict(), "rows": [c.to_dict() for c in report.checks]}

    docs = {f"audit {name}": _attempt(lambda s=s: audited(s)) for name, s in schedules.items()}
    swapped = _swapped(lib, inst, sched)
    schedules.update(swapped)
    for name, s in schedules.items():
        docs[f"verify {name}"] = _attempt(lambda s=s: lib.verify(inst, s).to_dict())
    schedules["block-torn"] = _torn(lib, inst, swapped["block-swapped"])
    for name, s in schedules.items():
        trace = lambda s=s: lib.extract_partition(inst3, inst, s)[1].to_dict()
        docs[f"extract {name}"] = _attempt(trace)
    docs["schedule svg"] = lib.render_schedule_svg(inst, sched)
    docs["packing svg"] = lib.render_packing_svg(strip, packing)
    sched_text, inst_text = sched.to_json(), inst.to_json()
    docs["schedule json"] = sched_text
    docs["schedule json again"] = lib.Schedule.from_json(sched_text).to_json()
    docs["instance json"] = inst_text
    docs["instance json again"] = lib.SchedulingInstance.from_json(inst_text).to_json()
    docs["forced starts"] = _attempt(lambda: lib.forced_starts(inst))
    return docs


def _gate(workloads, libs, ops) -> None:
    """Stop with the list of documents that differ between the sides."""
    differ, total = [], 0
    for (label, _, inputs, _), (_, _, twin, _) in zip(ops["old"], ops["new"]):
        old = _documents(workloads, libs["old"], *inputs)
        new = _documents(workloads, libs["new"], *twin)
        total += len(old)
        differ += [f"{label} {name}" for name in old if old[name] != new.get(name)]
    if differ:
        raise SystemExit(
            f"outputs: {len(differ)} of {total} documents differ:\n  " + "\n  ".join(differ)
        )
    print(f"outputs: {len(ops['old'])} inputs, {total} documents, identical")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    libs = {
        side: _load(f"gf_{side}", root.resolve() / "src" / "gadgetforge", True)
        for side, root in (("old", args.old), ("new", args.new))
    }
    workloads = _load("workloads", HERE / "perfbench" / "workloads.py")
    built = {side: _ops(workloads, lib, args.seed) for side, lib in libs.items()}
    ops = {side: table for side, (table, _) in built.items()}
    _gate(workloads, libs, ops)

    labels = [label for label, *_ in ops["old"]]
    best = {side: {label: {} for label in labels} for side in built}
    # per side and layer, each round's time summed over the ops
    per_round = {side: {} for side in built}
    for r in range(args.rounds):
        sides = ("old", "new") if r % 2 == 0 else ("new", "old")
        for k, label in enumerate(labels):
            for side in sides:
                table, timer = built[side]
                _, op, _, extracts = table[k]
                timer.spent.clear()
                start = time.perf_counter()
                ok, _ = op()
                timer.spent["op"] = time.perf_counter() - start
                if not ok:
                    raise SystemExit(f"{side} {label}: the op failed its own check")
                for name, inputs in extracts.items():
                    timer.call(f"extraction.{name}", libs[side].extract_partition, *inputs)
                mins = best[side][label]
                for layer, seconds in timer.spent.items():
                    mins[layer] = min(mins.get(layer, seconds), seconds)
                    per_round[side].setdefault(layer, [0.0] * args.rounds)[r] += seconds

    layers = sorted({layer for side in best.values() for m in side.values() for layer in m})
    layers.remove("op")
    print(f"pipeline: {len(labels)} ops, {args.rounds} rounds, seed {args.seed}")
    print(f"  {'layer':<30}{'old ms':>10}{'new ms':>10}{'new/old':>9}{'IQR':>15}")
    for layer in [*layers, "op"]:
        old, new = (
            sum(best[side][label].get(layer, 0.0) for label in labels) * 1e3
            for side in ("old", "new")
        )
        ratio = f"{new / old:>9.3f}" if old else f"{'-':>9}"
        spread = _spread(*(per_round[side].get(layer, ()) for side in ("new", "old")))
        print(f"  {layer:<30}{old:>10.2f}{new:>10.2f}{ratio}{spread:>15}")


if __name__ == "__main__":
    main()
