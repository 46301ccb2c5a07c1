"""Write the golden CLI corpus replayed by tests/test_golden.py.

Run from the repository root with the package under test on the path:

    PYTHONPATH=src python tests/golden/make_corpus.py

The script writes the input files under tests/golden/inputs/, runs every
case through the `gadgetforge` command group in-process, and records the
exit code and the exact stdout of each in tests/golden/cases.json (SVG
figures go to tests/golden/svg/).  Inputs that the CLI itself produces
(3-partition instances, witnesses, reductions, canonical schedules) are
taken from the recorded stdout; packings and hand-made schedules come from
the library.

The corpus pins the behaviour of the code it was generated with.  Only
regenerate it when an output is meant to change, and say which one.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

from gadgetforge.cli import main
from gadgetforge.reduction import SchedulingInstance, StripInstance
from gadgetforge.schedule import Schedule
from gadgetforge.synthesis import build_packing
from gadgetforge.threepartition import partition_from_json

GOLDEN = Path(__file__).resolve().parent
INPUTS = GOLDEN / "inputs"
SEED = 5

# Refutations whose `detail` text is free to change: the count-chain
# checks word their findings per chain, not per job family.
DETAIL_FREE = ("extract-forged-early", "extract-forged-late")


def _run(args: list[str]) -> tuple[int, str]:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return result.exit_code, result.stdout


def _put(name: str, text: str) -> str:
    (INPUTS / name).write_text(text, encoding="utf-8")
    return "{golden}/inputs/" + name


def _moved(sched_text: str, moves: dict[str, int]) -> str:
    sched = Schedule.from_json(sched_text)
    starts = dict(sched.starts)
    for job_id, delta in moves.items():
        starts[job_id] += delta
    return Schedule(starts=starts, machines=sched.machines).to_json()


def _swapped(sched_text: str, x: str, y: str) -> str:
    sched = Schedule.from_json(sched_text)
    starts = dict(sched.starts)
    starts[x], starts[y] = starts[y], starts[x]
    return Schedule(starts=starts, machines=sched.machines).to_json()


def _gap_swap(inst: SchedulingInstance, sched_text: str) -> tuple[str, str]:
    """Two value jobs of different length sitting in different gaps."""
    sched = Schedule.from_json(sched_text)
    p_jobs = sorted(inst.tagged("P"), key=lambda j: sched.starts[j.id])
    first, second = p_jobs[:3], p_jobs[3:6]
    for x in first:
        for y in second:
            if x.p != y.p:
                return x.id, y.id
    raise SystemExit("no value jobs of different length in the first two gaps")


def build_cases() -> list[dict]:
    cases: list[dict] = []

    def case(name: str, args: list[str], svg: str | None = None) -> str:
        with tempfile.TemporaryDirectory() as tmp:
            here = os.getcwd()
            os.chdir(tmp)
            try:
                real = [a.replace("{golden}", str(GOLDEN)) for a in args]
                code, out = _run(real)
                entry = {"name": name, "args": args, "exit": code, "stdout": out}
                if svg is not None:
                    (GOLDEN / "svg" / svg).write_bytes(Path("fig.svg").read_bytes())
                    entry["svg"] = "svg/" + svg
            finally:
                os.chdir(here)
        if name in DETAIL_FREE:
            entry["ignore"] = ["detail"]
        cases.append(entry)
        return out

    for z in (1, 2, 3):
        out = case(f"gen3p-yes-z{z}", ["gen3p", "--yes", "--z", str(z), "--seed", str(SEED)])
        payload = json.loads(out)
        inst3 = _put(f"z{z}_inst3.json", json.dumps(payload["instance"]))
        witness = _put(f"z{z}_witness.json", json.dumps({"sets": payload["witness"]}))
        case(f"gen3p-no-z{z}", ["gen3p", "--no", "--z", str(z), "--seed", str(SEED)])

        inst_text = case(f"reduce-z{z}", ["reduce", "--in", inst3])
        inst = _put(f"z{z}_inst.json", inst_text)
        strip_text = case(f"reduce-strip-z{z}", ["reduce", "--in", inst3, "--strip"])
        strip = _put(f"z{z}_strip.json", strip_text)
        sched_text = case(f"synth-z{z}", ["synth", "--inst", inst, "--witness", witness])
        sched = _put(f"z{z}_sched.json", sched_text)
        for cmd in ("verify", "audit", "extract"):
            case(f"{cmd}-z{z}", [cmd, "--inst", inst, "--sched", sched])
        case(f"decide-z{z}", ["decide", "--inst", inst, "--target-w"])
        if z <= 2:
            case(f"decide-contiguous-z{z}",
                 ["decide", "--inst", inst, "--target-w", "--contiguous"])

        if z == 2:
            sched_inst = SchedulingInstance.from_json(inst_text)
            packing = build_packing(
                StripInstance.from_json(strip_text),
                partition_from_json((INPUTS / "z2_witness.json").read_text()),
            )
            pack = _put("z2_packing.json", packing.to_json())
            case("render-gantt-z2",
                 ["render", "--inst", inst, "--sched", sched, "--out", "fig.svg"],
                 svg="gantt_z2.svg")
            case("render-strip-z2",
                 ["render", "--strip", strip, "--packing", pack, "--out", "fig.svg"],
                 svg="strip_z2.svg")

            # the three perturbations of acceptance criterion 8
            D = sched_inst.D
            perturbed = {
                "moved-values": _swapped(sched_text, *_gap_swap(sched_inst, sched_text)),
                "swapped-separators": _swapped(sched_text, "A_1", "B_1"),
                "shifted-filler": _moved(sched_text, {"gamma_1": D // 2}),
            }
            for label, text in perturbed.items():
                path = _put(f"z2_{label}.json", text)
                for cmd in ("verify", "audit", "extract"):
                    case(f"{cmd}-{label}", [cmd, "--inst", inst, "--sched", path])

            # forged schedules that reach the count chains: a side single
            # that ends one unit late, and a narrow pair that does
            forged = {
                "forged-early": _moved(sched_text, {"alpha_1": 1}),
                "forged-late": _moved(sched_text, {"b_1": 1}),
            }
            for label, text in forged.items():
                path = _put(f"z2_{label}.json", text)
                for cmd in ("verify", "audit", "extract"):
                    case(f"{cmd}-{label}", [cmd, "--inst", inst, "--sched", path])

            # audit rows of the two chains the forgeries above leave intact:
            # a side single that ends late breaks the b chain, and a narrow
            # pair that ends after the next filler starts breaks the c chain
            sched_obj = Schedule.from_json(sched_text)
            lengths = sched_inst.by_id
            late_a = sched_obj.starts["c_1"] - sched_obj.starts["a_1"] - lengths["a_1"].p + 1
            audited = {
                "forged-beta": _moved(sched_text, {"beta_1": 1}),
                "forged-pair": _moved(sched_text, {"a_1": late_a}),
            }
            for label, text in audited.items():
                path = _put(f"z2_{label}.json", text)
                case(f"audit-{label}", ["audit", "--inst", inst, "--sched", path])

    case("roundtrip-z2", ["roundtrip", "--z", "2", "--trials", "1"])
    return cases


def main_() -> None:
    INPUTS.mkdir(exist_ok=True)
    (GOLDEN / "svg").mkdir(exist_ok=True)
    cases = build_cases()
    text = json.dumps(cases, indent=1, sort_keys=True) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="utf-8")
    print(f"{len(cases)} cases written to {GOLDEN / 'cases.json'}", file=sys.stderr)


if __name__ == "__main__":
    main_()
