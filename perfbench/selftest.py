"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload for a few ops, traced and untraced, and checks that
each metric BENCHMARK.json names is emitted with its unit and nothing else.
Then it tampers with results on the way back from gadgetforge (a wrong
partition, a forged witness, a wrong CLI document) and checks that every
tampered op is counted as failed.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys
import types

import run
import workloads

FEW_OPS = {"pipeline": 3, "decide-witness": 6, "decide-exhaust": 2, "cli": 4}
SEED = 7


def _quick(lib, workload: str, trace: bool, probes: bool = False) -> dict:
    result, _ = run.measure(
        lib, workload, SEED, 1.0, trace, max_ops=FEW_OPS[workload], setup_probes=probes
    )
    return result


def _tampered(lib, **overrides):
    ns = types.SimpleNamespace(**{name: getattr(lib, name) for name in lib.__all__})
    for name, fn in overrides.items():
        setattr(ns, name, fn)
    return ns


def check_metric_names(lib, bench: dict) -> list[str]:
    problems = []
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in bench_workloads(bench):
            result = _quick(lib, workload, trace, probes=not trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted:
                diff = sorted(set(got.items()) ^ set(wanted.items()))
                problems.append(f"{workload} trace={int(trace)}: metric/unit mismatch {diff}")
            if result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} ops failed")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{workload}: non-numeric values {bad}")
    return problems


def check_tampering(lib) -> list[str]:
    def wrong_partition(inst3p, inst, sched):
        partition, trace = lib.extract_partition(inst3p, inst, sched)
        (a1, a2, a3), (b1, b2, b3), *rest = partition
        return ((a1, b2, a3), (b1, a2, b3), *rest), trace

    def forged_witness(inst, target, contiguous=False, **kwargs):
        decision = lib.decide_target(inst, target, contiguous, **kwargs)
        if decision.schedule is None:
            return decision
        starts = dict(decision.schedule.starts)
        starts[min(starts)] += 1  # zero idle: any later start breaks the schedule
        schedule = lib.Schedule(starts=starts, machines=decision.schedule.machines)
        return lib.Decision(decision.outcome, schedule, decision.nodes,
                            decision.prunes, decision.reason)

    cases = [
        ("pipeline", "wrong partition", _tampered(lib, extract_partition=wrong_partition)),
        ("decide-witness", "forged witness", _tampered(lib, decide_target=forged_witness)),
    ]
    problems = [_expect_all_failed(w, what, _quick(ns, w, False)) for w, what, ns in cases]

    honest_spawn = workloads.Ctx.spawn

    def forged_stdout(self, argv):
        code, out = honest_spawn(self, argv)
        return code, (b'{"forged":1,' + out[1:]) if out.startswith(b"{") else out

    workloads.Ctx.spawn = forged_stdout
    try:
        problems.append(_expect_all_failed("cli", "forged stdout", _quick(lib, "cli", False)))
    finally:
        workloads.Ctx.spawn = honest_spawn
    return [p for p in problems if p]


def _expect_all_failed(workload: str, what: str, result: dict) -> str | None:
    ok_ratio = result["metrics"]["ok_ratio"]["value"]
    if result["correct"] or result["failed"] != result["attempted"] or ok_ratio != 0:
        return (f"{workload}/{what}: {result['failed']} of {result['attempted']} ops "
                f"counted as failed, ok_ratio {ok_ratio}")
    return None


def bench_workloads(bench: dict) -> list[str]:
    return [w["name"] for w in bench["workloads"]]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lib = run.load_library()
    problems = []
    if sorted(bench_workloads(bench)) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    problems += check_metric_names(lib, bench)
    print("selftest: the failed ops logged from here on are tampered on purpose",
          file=sys.stderr)
    problems += check_tampering(lib)
    for p in problems:
        print(f"selftest: FAIL {p}")
    print(f"selftest: {'FAIL' if problems else 'ok'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
