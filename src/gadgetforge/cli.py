"""Command line front door.

Every subcommand prints exactly one machine-readable JSON payload on stdout
(canonical form: sorted keys, no spaces, big integers as decimal strings)
and keeps human commentary on stderr, so output can be piped safely.

Exit codes:
    0   positive result (feasible, audit clean, witness found, partition out)
    1   negative decision (infeasible, violations, proved-none, refutation)
    2   invalid input (usage, malformed JSON, parameter violations, refusals)
    3   budget exhausted before a decision
    70  internal error: a fault of the program, never of the input
        (sysexits EX_SOFTWARE)

Each subcommand imports the library modules it runs when it runs, so a
process that verifies a schedule never loads the solver or the renderer.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

# Every subcommand runs these modules, directly or through reduction, so
# their names are imported here; the rest are imported by the subcommands.
from .exactnum import InvalidInput, dump_json, parse_int
from .threepartition import (
    DEFAULT_BUDGET,
    GenerationFailed,
    SearchBudgetExceeded,
    ThreePartitionInstance,
    gen_no,
    gen_yes,
    partition_from_json,
    partition_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_SOFTWARE = 70

_DECISION_EXITS = {
    "witness": EXIT_OK,
    "proved-none": EXIT_NEGATIVE,
    "refused": EXIT_BAD_INPUT,
    "budget-exceeded": EXIT_BUDGET,
}


def _emit(payload) -> None:
    if not isinstance(payload, str):
        payload = dump_json(payload)
    click.echo(payload)


def _log(message: str) -> None:
    click.echo(message, err=True)


def _fail(code: int, message: str) -> None:
    _log(message)
    sys.exit(code)


def _guard(fn):
    """Map library exceptions onto the exit-code table: a refused input
    (`InvalidInput`) exits 2, a spent budget 3, and any other exception,
    which no input should cause, 70, on one line and with no traceback.
    click's own exceptions are its usage errors, which it reports."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InvalidInput as exc:
            _fail(EXIT_BAD_INPUT, f"invalid input: {exc}")
        except (SearchBudgetExceeded, GenerationFailed) as exc:
            _fail(EXIT_BUDGET, f"budget: {exc}")
        except click.ClickException:
            raise
        except Exception as exc:
            _fail(EXIT_SOFTWARE, f"internal error: {exc!r}")

    return wrapped


def _read(path: str) -> str:
    """The text of a file the user names: one that cannot be read, or is
    not UTF-8, is refused as input (exit 2)."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from None


def _write(path: str, text: str) -> None:
    """Write a file the user names: a path that cannot be written is
    refused as input (exit 2), not a fault of the program."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc.strerror or exc}") from None


_in_file = click.Path(exists=True, dir_okay=False)


def _at_least(value: int, low: int, option: str) -> None:
    """Refuse an integer option below its bound as a usage error (exit 2)."""
    if value < low:
        raise click.UsageError(f"{option} must be at least {low}, not {value}")


class _StrictInt(click.ParamType):
    """An integer option read the way the canonical form writes numbers
    (`exactnum.parse_int`): click's `int` would also take "1_0", " 7" and
    non-ASCII digits."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return parse_int(value, f"--{param.name}")
        except InvalidInput as exc:
            self.fail(str(exc), param, ctx)


@click.group()
def main():
    """Rigid-job scheduling gadget toolkit.

    Generate number-partition instances, reduce them to 4-machine
    multiprocessor schedules or strip packings, synthesize and check
    canonical zero-idle schedules, pull partitions back out, run the
    exact decider, and draw figures.
    """


@main.command("gen3p")
@click.option("--yes/--no", "want_yes", default=None,
              help="Generate a solvable instance (with witness) or a certified unsolvable one.")
@click.option("--z", type=_StrictInt(), required=True, help="Number of partition sets.")
@click.option("--seed", type=_StrictInt(), required=True)
@click.option("--witness-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the witness JSON to this file (solvable only).")
@_guard
def gen3p(want_yes: bool, z: int, seed: int, witness_out: str | None):
    """Generate a 3-partition instance."""
    if want_yes is None:
        raise click.UsageError("give --yes or --no")
    if want_yes:
        _at_least(z, 1, "--z")
        inst, witness = gen_yes(z, seed)
        payload = {
            "instance": json.loads(inst.to_json()),
            "witness": [list(s) for s in witness],
        }
        if witness_out:
            _write(witness_out, partition_to_json(witness))
            _log(f"witness written to {witness_out}")
    else:
        if witness_out:
            raise click.UsageError("--witness-out needs --yes")
        # the congruence scheme of gen_no needs two sets
        _at_least(z, 2, "--z with --no")
        inst = gen_no(z, seed)
        payload = {"instance": json.loads(inst.to_json()), "witness": None}
        _log(f"unsolvable instance certified by exhaustive search (z={z})")
    _emit(payload)


@main.command("reduce")
@click.option("--in", "in_path", type=_in_file, required=True,
              help="3-partition instance JSON.")
@click.option("--strip", is_flag=True, help="Emit the strip-packing form instead.")
@_guard
def reduce_cmd(in_path: str, strip: bool):
    """Reduce a 3-partition instance to a scheduling (or strip) instance."""
    from .reduction import build_jobs, build_strip

    inst3 = ThreePartitionInstance.from_json(_read(in_path))
    built = build_strip(inst3) if strip else build_jobs(inst3)
    _emit(built.to_json())
    _log(f"reduced z={inst3.z}: {len(built.jobs)} pieces, width {built.W}")


@main.command("synth")
@click.option("--inst", "inst_path", type=_in_file, required=True,
              help="Scheduling instance JSON (a reduction).")
@click.option("--witness", "witness_path", type=_in_file, required=True,
              help="Partition witness JSON.")
@_guard
def synth(inst_path: str, witness_path: str):
    """Build the canonical zero-idle schedule realizing a witness."""
    from .reduction import SchedulingInstance
    from .synthesis import build_schedule

    inst = SchedulingInstance.from_json(_read(inst_path))
    witness = partition_from_json(_read(witness_path))
    sched = build_schedule(inst, witness)
    _emit(sched.to_json())
    _log(f"canonical schedule for z={inst.z}, makespan {inst.W}")


@main.command("verify")
@click.option("--inst", "inst_path", type=_in_file, required=True)
@click.option("--sched", "sched_path", type=_in_file, required=True)
@_guard
def verify_cmd(inst_path: str, sched_path: str):
    """Check feasibility, makespan, idle time, and contiguity."""
    from .reduction import SchedulingInstance
    from .schedule import Schedule, verify

    inst = SchedulingInstance.from_json(_read(inst_path))
    sched = Schedule.from_json(_read(sched_path))
    report = verify(inst, sched)
    _emit(report.to_dict())
    if not report.feasible:
        _fail(EXIT_NEGATIVE, f"infeasible: {report.problems[0]}")
    _log(f"feasible, makespan {report.makespan}, idle {report.idle}")


@main.command("audit")
@click.option("--inst", "inst_path", type=_in_file, required=True)
@click.option("--sched", "sched_path", type=_in_file, required=True)
@_guard
def audit_cmd(inst_path: str, sched_path: str):
    """Check the start-time and precedence-count identities of a reduction
    schedule at the target makespan."""
    from .reduction import SchedulingInstance
    from .schedule import Schedule, audit

    inst = SchedulingInstance.from_json(_read(inst_path))
    sched = Schedule.from_json(_read(sched_path))
    report = audit(inst, sched)
    _emit(report.to_dict())
    if not report.passed:
        first = report.first_violation
        _fail(EXIT_NEGATIVE, f"audit violation at {first.checkpoint}: {first.kind}")
    _log(f"audit clean: {len(report.checks)} checks")


@main.command("extract")
@click.option("--inst", "inst_path", type=_in_file, required=True)
@click.option("--sched", "sched_path", type=_in_file, required=True)
@click.option("--trace", is_flag=True, help="Log normalization stages to stderr.")
@_guard
def extract(inst_path: str, sched_path: str, trace: bool):
    """Normalize a target-makespan schedule and read the partition out."""
    from .extraction import RefutationCertificate, extract_partition
    from .reduction import SchedulingInstance, recover_values
    from .schedule import NotTargetMakespan, Schedule

    inst = SchedulingInstance.from_json(_read(inst_path))
    sched = Schedule.from_json(_read(sched_path))
    inst3 = recover_values(inst)
    try:
        partition, tr = extract_partition(inst3, inst, sched)
    except RefutationCertificate as cert:
        _emit(cert.to_dict())
        _fail(EXIT_NEGATIVE, f"refuted at stage {cert.stage}: {cert.lemma}")
    except NotTargetMakespan as exc:
        _fail(EXIT_NEGATIVE, f"rejected: {exc}")
    if trace:
        for event in tr.events:
            _log("  ".join(f"{k}={v}" for k, v in sorted(event.items())))
    _emit(partition_to_json(partition))
    _log(f"partition of {3 * inst.z} values into {inst.z} sets")


@main.command("decide")
@click.option("--inst", "inst_path", type=_in_file, required=True)
@click.option("--target", type=str, default=None,
              help="Explicit target makespan (decimal string).")
@click.option("--target-w", "--target-W", "use_w", is_flag=True,
              help="Use the instance's designed target load W.")
@click.option("--contiguous", is_flag=True,
              help="Require machine sets to be intervals (strip-packing mode).")
@click.option("--budget", type=_StrictInt(), default=DEFAULT_BUDGET,
              show_default=True, help="Node budget per root branch (a plain "
              "decision of a reduction at W has only one, after its "
              "forced run at 0).")
@_guard
def decide(inst_path: str, target: str | None, use_w: bool, contiguous: bool,
           budget: int):
    """Exact zero-idle search: witness, proved-none, or an honest refusal."""
    if (target is None) == (not use_w):
        raise click.UsageError("give exactly one of --target or --target-w")
    from .reduction import SchedulingInstance
    from .solver import decide_target

    inst = SchedulingInstance.from_json(_read(inst_path))
    goal = inst.W if use_w else parse_int(target, "--target")
    decision = decide_target(inst, goal, contiguous, budget=budget)
    _emit(decision.to_dict())
    reason = f": {decision.reason}" if decision.reason else ""
    _log(f"{decision.outcome} after {decision.nodes} nodes{reason}")
    sys.exit(_DECISION_EXITS[decision.outcome])


@main.command("render")
@click.option("--inst", "inst_path", type=_in_file, default=None,
              help="Scheduling instance JSON (with --sched).")
@click.option("--sched", "sched_path", type=_in_file, default=None,
              help="Schedule JSON: draw a Gantt chart.")
@click.option("--strip", "strip_path", type=_in_file, default=None,
              help="Strip instance JSON (with --packing).")
@click.option("--packing", "packing_path", type=_in_file, default=None,
              help="Packing JSON: draw the strip figure.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_guard
def render(inst_path, sched_path, strip_path, packing_path, out_path):
    """Draw an SVG figure with a banded (per-magnitude) time axis."""
    from .reduction import SchedulingInstance, StripInstance
    from .render import render_packing_svg, render_schedule_svg
    from .schedule import Schedule
    from .strip import Packing

    if inst_path and sched_path and not (strip_path or packing_path):
        inst = SchedulingInstance.from_json(_read(inst_path))
        sched = Schedule.from_json(_read(sched_path))
        text = render_schedule_svg(inst, sched)
    elif strip_path and packing_path and not (inst_path or sched_path):
        strip = StripInstance.from_json(_read(strip_path))
        packing = Packing.from_json(_read(packing_path))
        text = render_packing_svg(strip, packing)
    else:
        raise click.UsageError(
            "give --inst with --sched (Gantt) or --strip with --packing (strip figure)"
        )
    _write(out_path, text)
    _emit({"out": out_path, "bytes": len(text.encode())})
    _log(f"wrote {out_path}")


@main.command("roundtrip")
@click.option("--z", type=_StrictInt(), required=True)
@click.option("--trials", type=_StrictInt(), required=True)
@click.option("--seed", type=_StrictInt(), default=0, show_default=True)
@_guard
def roundtrip(z: int, trials: int, seed: int):
    """Generate, reduce, synthesize, verify, audit, extract, compare."""
    _at_least(z, 1, "--z")
    _at_least(trials, 1, "--trials")
    from .extraction import extract_partition
    from .reduction import build_jobs
    from .schedule import audit, verify
    from .synthesis import build_schedule

    passes = 0
    failures = []
    for k in range(trials):
        inst3, planted = gen_yes(z, seed + k)
        inst = build_jobs(inst3)
        sched = build_schedule(inst, planted)
        report = verify(inst, sched)
        ok = (
            report.feasible
            and report.makespan == inst.W
            and report.idle == 0
            and report.contiguous
            and audit(inst, sched).passed
        )
        recovered, _ = extract_partition(inst3, inst, sched)
        ok = ok and {frozenset(s) for s in recovered} == {
            frozenset(s) for s in planted
        }
        if ok:
            passes += 1
            _log(f"trial {k}: pass (seed {seed + k})")
        else:
            failures.append(k)
            _log(f"trial {k}: FAIL (seed {seed + k})")
    _emit({"z": z, "trials": trials, "passes": passes, "failures": failures})
    if passes != trials:
        sys.exit(EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
