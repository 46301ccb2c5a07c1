"""A/B timing of the solver on the benchmark's two decision corpora.

    python3 tools/ab_decide.py OLD NEW [--rounds 8] [--seed 0] [--outcomes]

OLD and NEW are checkouts of this repository.  Each checkout's
`src/gadgetforge` is imported under its own package name (`gf_old` and
`gf_new`), so both run in one process and take turns op by op.  The ops are
the `decide-witness` and `decide-exhaust` corpora of the benchmark, built by
`perfbench/workloads.py` of the checkout this script lives in, which is
imported and not modified; every op checks its own answer there, as in a
benchmark run.

Before the timing, once per run, both checkouts take the same decisions:
25 random carves of 12 to 20 jobs at a quarter of their work, `gen_yes`
(1,0) (1,5) (2,1) (3,2) (6,0) (10,3) and `gen_no` (2,0) (2,3) reduced and
decided at W, and the digit traps at D = 17 and 33; each under every
`PruneRules` set of the rules both checkouts have, plain and contiguous,
at budgets 1, 4, 30 and 300.  A rule only one checkout has is switched
off on that side.  With three shared rules that is 8 sets and 2,240
decisions.
The carves and traps come from the helpers of `tests/test_solver.py` of the
checkout this script lives in, imported and not modified, and each side
gets its own copy of every instance.  Every decision must give a
byte-identical `Decision.to_dict()` on both sides; the script lists every
case that differs and stops.

With `--outcomes`, for a change that is meant to move node and prune
counts, a decision may differ in its counts as long as its answer stands:
every answered outcome (witness, proved-none, refused) must be the same on
both sides, a witness at the default budget must keep its bytes, and a
budget-exceeded that NEW answers is listed but allowed.  A witness under a
smaller budget may change, since fewer nodes can let an earlier root branch
finish.  The same rule holds for the corpus ops, and the script prints how
many decisions stayed identical, moved only their counts or were newly
answered.

Only the `decide_target` call of an op is timed, and a full garbage
collection runs before every op, outside the timer, so that neither side
is timed collecting garbage the other left.  Each round runs every op once
on each side, and the side that goes first alternates from op to op and
from one pair of rounds to the next.  Every op must give a byte-identical
`Decision.to_dict()` on both sides, in every round, or agree by the rule
above under `--outcomes`.  The script prints, per op and per corpus, the
minimum decide time of each side over the rounds and the ratio NEW/OLD of
those minima; a corpus total is the sum of its per-op minima.  Beside
each, the cold columns time first decisions: every other round, from the
first, builds the corpus anew, so each of its decisions is the first on
its instance object, where what an instance works out once and keeps,
such as the solver's plans, is built; the round after it decides the
same objects warm.  At least five rounds are run, so at least three are
cold.  An op's cold time is each side's minimum over the cold rounds,
printed with its ratio beside the warm one, and the total row's cold
columns sum them.  A slower first decision thus shows in the cold columns
and not in the warm minima.  Each total row also prints the interquartile
range of its per-round ratios, warm over the rounds that reuse their
objects and cold over the cold rounds: each such round's time summed over
the row's ops, NEW over OLD.  A range that covers 1.0 shows no difference
this run can tell from noise; an A/A run (OLD and NEW the same checkout)
shows how far from 1.0 a range strays on the host.

Each corpus prints a second total row, warm and cold, "total without
probe", that leaves out the equations-off probe `yes(1,5)/equations-off`.
The probe decides a reduction with the equation tables off, so it derives
no reduction fact (no forward geometry, no forced-start index), and it is
about 44 of the 64 to 72 ms of the decide-exhaust total: a change to the
cold path of the other ops, or to the equation tables, moves the total
little and this row much more.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import random
import sys
import time
from collections import Counter
from dataclasses import fields
from itertools import product
from pathlib import Path
from statistics import quantiles
from typing import Sequence

HERE = Path(__file__).resolve().parent.parent
CORPORA = ("decide-witness", "decide-exhaust")
# the op the second total row leaves out: it derives no reduction fact
PROBE = "yes(1,5)/equations-off"
CARVES = 25
YES_CASES = ((1, 0), (1, 5), (2, 1), (3, 2), (6, 0), (10, 3))
NO_CASES = ((2, 0), (2, 3))
TRAP_DS = (17, 33)
BUDGETS = (1, 4, 30, 300)
# the fewest cold rounds a run makes: every other round, on instance
# objects of its own, times cold decisions
COLD_ROUNDS = 3


def _load(name: str, path: Path, package: bool = False):
    """Import the module (or package directory) at `path` as `name`."""
    if package:
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)]
        )
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """Stands in for the benchmark's tracer: runs every call, and times and
    keeps the result of the latest `solver.decide` call, and its budget
    (None for the default)."""

    def __init__(self):
        self.last = None

    def call(self, layer: str, fn, *args, **kwargs):
        if layer != "solver.decide":
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.last = (time.perf_counter() - start, out, kwargs.get("budget"))
        return out


def _ops(workloads, lib, corpus: str, seed: int):
    """The corpus's ops against `lib` by label, and the recorder they report
    their decisions to."""
    recorder = _Recorder()
    ctx = workloads.Ctx(lib, recorder, seed, HERE, HERE)
    return {label: op for label, op, _ in workloads.WORKLOADS[corpus](ctx)}, recorder


def _run(op, recorder) -> tuple[float, str, int | None]:
    # the garbage of earlier ops is collected here, outside the timer, so a
    # collection that garbage would trigger is not timed in this op
    gc.collect()
    ok, _ = op()
    if not ok:
        raise SystemExit("an op failed its own check")
    seconds, decision, budget = recorder.last
    return seconds, json.dumps(decision.to_dict(), sort_keys=True), budget


ANSWERED = ("witness", "proved-none", "refused")


def _verdict(old: str, new: str, witness_kept: bool, outcomes: bool) -> str:
    """How NEW's decision stands to OLD's, both as `to_dict()` JSON:
    "identical"; under `outcomes` also "counts" (the same answer, other
    counts) or "answered" (OLD's budget-exceeded answered by NEW); else
    "differ".  `witness_kept` asks a witness to keep its bytes."""
    if old == new:
        return "identical"
    if not outcomes:
        return "differ"
    a, b = json.loads(old), json.loads(new)
    if a["outcome"] == b["outcome"]:
        if a["outcome"] == "witness" and witness_kept and a["witness"] != b["witness"]:
            return "differ"
        return "counts"
    if a["outcome"] == "budget-exceeded" and b["outcome"] in ANSWERED:
        return "answered"
    return "differ"


def _instances(lib, helpers) -> dict:
    """Each instance of the differential against `lib`, by label, with the
    target it is decided at."""

    def own(inst):
        jobs = tuple(lib.Job(j.id, j.p, j.q, j.tag, j.index) for j in inst.jobs)
        return lib.SchedulingInstance(inst.m, inst.z, inst.D, inst.W, jobs)

    out = {}
    for k, inst in enumerate(helpers._carves(random.Random("ab-decide"), CARVES)):
        out[f"carve{k:02d}"] = own(inst), inst.total_work // inst.m
    for z, seed in YES_CASES:
        inst = lib.build_jobs(lib.gen_yes(z, seed)[0])
        out[f"yes({z},{seed})"] = inst, inst.W
    for z, seed in NO_CASES:
        inst = lib.build_jobs(lib.gen_no(z, seed))
        out[f"no({z},{seed})"] = inst, inst.W
    for D in TRAP_DS:
        inst, target = helpers.digit_trap_instance(D)
        out[f"trap{D}"] = own(inst), target
    return out


def _rule_sets(libs) -> list[tuple[str, dict]]:
    """Each set of the rules both sides have: the names of the rules it
    switches on, and each side's `PruneRules` built by keyword.  A rule
    only one side has is off on that side."""
    names = {side: [f.name for f in fields(lib.PruneRules)] for side, lib in libs.items()}
    shared = [name for name in names["old"] if name in names["new"]]
    sets = []
    for flags in product((True, False), repeat=len(shared)):
        on = [name for name, flag in zip(shared, flags) if flag]
        rules = {
            side: lib.PruneRules(**{name: name in on for name in names[side]})
            for side, lib in libs.items()
        }
        sets.append((",".join(on) or "none", rules))
    return sets


def _differential(libs, outcomes: bool) -> None:
    """Decide every case of the differential on both sides and stop with
    the list of cases whose decisions differ; under `outcomes`, list the
    cases NEW newly answers."""
    sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
    helpers = _load("ab_solver_tests", HERE / "tests" / "test_solver.py")
    cases = {side: _instances(lib, helpers) for side, lib in libs.items()}
    tally = Counter()
    verdicts = Counter()
    listed = {"differ": [], "answered": []}
    rule_sets = _rule_sets(libs)
    for label in cases["old"]:
        for (on, rules), contiguous, budget in product(
            rule_sets, (False, True), BUDGETS
        ):
            seen = {}
            for side, lib in libs.items():
                inst, target = cases[side][label]
                decision = lib.decide_target(
                    inst, target, contiguous, budget=budget, rules=rules[side]
                )
                seen[side] = json.dumps(decision.to_dict(), sort_keys=True)
            tally[decision.outcome] += 1
            # no budget of the differential is the default one
            verdict = _verdict(seen["old"], seen["new"], False, outcomes)
            verdicts[verdict] += 1
            if verdict in listed:
                mode = "contiguous" if contiguous else "plain"
                listed[verdict].append(f"{label} rules={on} {mode} budget={budget}")
    total = sum(tally.values())
    if listed["differ"]:
        raise SystemExit(
            f"differential: {len(listed['differ'])} of {total} decisions differ:\n  "
            + "\n  ".join(listed["differ"])
        )
    counts = ", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items()))
    if not outcomes:
        print(f"differential: {total} decisions, identical (new: {counts})")
        return
    moved = ", ".join(f"{n} {verdict}" for verdict, n in sorted(verdicts.items()))
    print(f"differential: {total} decisions agree by outcome ({moved}; new: {counts})")
    for case in listed["answered"]:
        print(f"  answered by new only: {case}")


def _columns(old: float, new: float, digits: str) -> str:
    """Two times in seconds as columns of ms, and their ratio NEW/OLD."""
    return f"{old * 1e3:>10{digits}}{new * 1e3:>10{digits}}{new / old:>9.3f}"


def _spread(new: Sequence[float], old: Sequence[float]) -> str:
    """The interquartile range of the per-round ratios NEW/OLD of two
    sides' times, round by round, as "q1-q3", or "-" when there are none."""
    ratios = [n / o for n, o in zip(new, old) if o]
    if not ratios:
        return "-"
    q1, _, q3 = quantiles(ratios, n=4, method="inclusive") if ratios[1:] else ratios * 3
    return f"{q1:.3f}-{q3:.3f}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--outcomes",
        action="store_true",
        help="allow moved counts: answers and default-budget witnesses must stand",
    )
    args = parser.parse_args(argv)
    libs = {
        side: _load(f"gf_{side}", root.resolve() / "src" / "gadgetforge", True)
        for side, root in (("old", args.old), ("new", args.new))
    }
    _differential(libs, args.outcomes)
    workloads = _load("workloads", HERE / "perfbench" / "workloads.py")
    for corpus in CORPORA:
        ops = {side: _ops(workloads, lib, corpus, args.seed) for side, lib in libs.items()}
        labels = sorted(ops["old"][0])
        assert labels == sorted(ops["new"][0])
        rounds = max(args.rounds, 2 * COLD_ROUNDS - 1)
        # per side and op, its decide time in each round
        times = {side: {label: [] for label in labels} for side in libs}
        verdicts = {}
        for r in range(rounds):
            if r % 2 == 0 and r:
                # fresh instance objects, so this round's decisions are cold
                ops = {
                    side: _ops(workloads, lib, corpus, args.seed)
                    for side, lib in libs.items()
                }
            for k, label in enumerate(labels):
                sides = ("old", "new") if (r // 2 + k) % 2 == 0 else ("new", "old")
                seen = {}
                for side in sides:
                    table, recorder = ops[side]
                    seconds, seen[side], budget = _run(table[label], recorder)
                    times[side][label].append(seconds)
                verdicts[label] = _verdict(
                    seen["old"], seen["new"], budget is None, args.outcomes
                )
                if verdicts[label] == "differ":
                    raise SystemExit(f"{corpus} {label}: the decisions differ")
        # each side's minimum per op over every round, and over the cold ones
        best = {side: {k: min(v) for k, v in ts.items()} for side, ts in times.items()}
        cold = {side: {k: min(v[::2]) for k, v in ts.items()} for side, ts in times.items()}
        moved = Counter(verdicts.values())
        agree = ", ".join(f"{n} {verdict}" for verdict, n in sorted(moved.items()))
        print(f"{corpus}: {len(labels)} ops, {rounds} rounds, decisions {agree}")
        print(
            f"  {'op':<28}{'old ms':>10}{'new ms':>10}{'new/old':>9}{'IQR':>13}"
            f"{'cold old':>12}{'cold new':>10}{'new/old':>9}{'IQR':>13}"
        )
        for label in labels:
            warm = _columns(best["old"][label], best["new"][label], ".2f")
            first = _columns(cold["old"][label], cold["new"][label], ".2f")
            print(f"  {label:<28}{warm}{'':>13}  {first}")
        without = [label for label in labels if label != PROBE]
        for name, kept in (("total", labels), ("total without probe", without)):
            # per side, each round's time summed over the row's ops
            summed = {
                side: [sum(each) for each in zip(*(times[side][k] for k in kept))]
                for side in libs
            }
            row = ""
            for mins, parity in ((best, 1), (cold, 0)):
                total = (sum(mins[side][k] for k in kept) for side in ("old", "new"))
                spread = _spread(summed["new"][parity::2], summed["old"][parity::2])
                row += f"{_columns(*total, '.1f')}{spread:>13}  "
            print(f"  {name:<28}{row.rstrip()}")


if __name__ == "__main__":
    main()
