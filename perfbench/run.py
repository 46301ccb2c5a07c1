"""gadgetforge benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src and the
CLI is started as `python3 -m gadgetforge.cli` with ./src on PYTHONPATH;
GADGETFORGE_THREADS is removed from the environment and no thread count is
ever passed, so the numbers measure the default path.

Each workload repeats a fixed number of whole rounds, about --seconds long
at the reference speed.  With --trace 0 the last stdout line carries the
end-to-end metrics, timed with tracing off.  With --trace 1 every op runs
twice in a row, untraced and traced, over half as many rounds; the run
reports per-layer self times, counts, and the tracing overhead of the
traced runs over the untraced ones.  Times and rates are scaled to a
reference machine speed (see Speed).  The line before the result is the
run's provenance.  Work files (CLI inputs, spans) go to ./.perfbench.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer
from workloads import CAPS, CLI_SUBCOMMANDS, WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_ROUNDS = 2  # op_tail_ms needs samples beyond it on every workload
# seconds one round took at the reference speed (see Speed) when the
# benchmark was added; fixed, so a faster program ends its run sooner
ROUND_S = {"pipeline": 2.2, "decide-witness": 1.6, "decide-exhaust": 15.0, "cli": 6.2}
CLI_STARTUP_SAMPLES = 5
HOLDOUT_SEED = 1009  # claims are re-checked on this seed; never tune on it

# layers timed around the benchmark's calls: <name>.calls and <name>.self_ms
CALL_LAYERS = (
    "threepartition.gen_yes",
    "threepartition.gen_no",
    "exactnum.codec",
    "reduction.build_jobs",
    "reduction.build_strip",
    "reduction.recognize",
    "reduction.forced_starts",
    "schedule.verify",
    "schedule.audit",
    "schedule.mirror",
    "schedule.json",
    "strip.verify_packing",
    "strip.normalize",
    "strip.bridge",
    "synthesis.build_schedule",
    "synthesis.build_packing",
    "extraction.extract",
    "extraction.refute",
    "solver.decide",
    "render.schedule_svg",
    "render.packing_svg",
)
PRUNE_RULES = ("symmetry", "equations", "coeff-budget", "no-fit")


class Speed:
    """The machine's speed over time, from a fixed pure-Python loop timed
    between ops.

    On a shared host the same Python code runs at two or more distinct
    speeds, switching from one second to the next: on a 2-vCPU VM one
    capped gen_yes(16, 1) decision took 0.15 s or 0.22 s depending on the
    moment, and the loop below 8.5 ms or 11 ms alongside it.  Every op's
    wall time is scaled to the speed at which the loop takes REFERENCE_S,
    using the samples taken just before and just after the op, so runs made
    minutes apart stay comparable.  The median factor is in the provenance.
    gadgetforge never runs this loop, so a change to the program cannot
    move the factor.
    """

    REFERENCE_S = 0.010
    ITERATIONS = 100_000
    EVERY_S = 0.25

    def __init__(self) -> None:
        self.ends: list[float] = []  # when each sample ended
        self.samples: list[float] = []  # seconds the loop took

    def sample(self) -> None:
        total, t0 = 0, time.perf_counter()
        for i in range(self.ITERATIONS):
            total += i * i % 7
        self.ends.append(time.perf_counter())
        self.samples.append(self.ends[-1] - t0)

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.ends[-1] >= self.EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        """How many times slower than the reference the machine ran."""
        return statistics.median(self.samples) / self.REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """The interval t0..t1 at the reference speed: divided by the mean
        factor of the last sample before t0 and the first one after t1."""
        before = max(bisect.bisect_right(self.ends, t0) - 1, 0)
        after = min(bisect.bisect_left(self.ends, t1), len(self.ends) - 1)
        mean = (self.samples[before] + self.samples[after]) / 2
        return (t1 - t0) * self.REFERENCE_S / mean


@dataclass
class Tally:
    windows: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0
    asked: int = 0
    answered: int = 0
    rounds: int = 0
    unanswered: set[str] = field(default_factory=set)

    @property
    def durations(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.windows]


def rounds_for(workload: str, seconds: float) -> int:
    """A fixed number of rounds per workload, about `seconds` long at the
    reference speed, so every run reads its percentiles at the same rank
    within the round whatever the program's speed."""
    return max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))


def run_rounds(tracer, speed, ops, rounds: int, *, traced=False,
               max_ops=None) -> list[Tally]:
    """Closed loop, one client: repeat whole rounds `rounds` times.  Returns
    one tally, or with `traced` two, untraced and traced: every op then runs
    twice in a row, with tracing off and on, and which goes first alternates
    from op to op, so a drift in machine speed hits both alike.  `max_ops`
    cuts a run short."""
    tallies = [Tally(), Tally()] if traced else [Tally()]
    done = 0
    for r in range(rounds):
        for i, (label, fn, counts_answer) in enumerate(ops):
            order = (0, 1) if (r + i) % 2 == 0 else (1, 0)
            for k in order if traced else (0,):
                tracer.enabled = bool(k)
                _run_op(tracer, tallies[k], label, fn, counts_answer)
            tracer.enabled = False
            speed.sample_if_due()
            done += 1
            if max_ops is not None and done >= max_ops:
                break
        for tally in tallies:
            tally.rounds += 1
        if max_ops is not None and done >= max_ops:
            break
    speed.sample()  # the last ops need a sample after them
    return tallies


def _run_op(tracer, tally: Tally, label: str, fn, counts_answer: bool) -> None:
    t0 = time.perf_counter()
    try:
        with tracer.op(label, len(tally.windows)):
            ok, answered = fn()
    except Exception as exc:  # a crash is a failed op, not a failed run
        ok, answered = False, False
        print(f"perfbench: op {label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
    tally.windows.append((t0, time.perf_counter()))
    if not ok:
        tally.failed += 1
        print(f"perfbench: op {label} failed its check", file=sys.stderr)
    if counts_answer:
        tally.asked += 1
        tally.answered += bool(answered)
        if not answered:
            tally.unanswered.add(label)


def tail(durations: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    which percentile that is (the maximum when there are fewer samples)."""
    ranked = sorted(durations)
    k = max(len(ranked) - 11, 0) if len(ranked) > 10 else len(ranked) - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def end_to_end(tally: Tally, speed: Speed, setup_s: float, peak_kb: int) -> dict:
    """The end-to-end metrics, times already at the reference speed."""
    durations = [speed.scaled(t0, t1) for t0, t1 in tally.windows]
    tail_s, _ = tail(durations)
    n = len(durations)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (n / sum(durations), "1/s"),
        "ok_ratio": (1 - tally.failed / n, "ratio"),
        "answered_ratio": (tally.answered / tally.asked if tally.asked else 1.0, "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def per_layer(workload, ctx, tracer, untraced: Tally, traced: Tally) -> dict:
    rounds = traced.rounds
    run, setup = tracer.self_times("run"), tracer.self_times("setup")
    out = {}
    for layer in CALL_LAYERS:
        # the benchmark calls threepartition only while setting up
        in_setup = layer.startswith("threepartition.")
        calls, secs = (setup if in_setup else run).get(layer, (0, 0.0))
        per = 1 if in_setup else rounds
        out[f"{layer}.calls"] = (calls / per, "count")
        out[f"{layer}.self_ms"] = (secs * 1e3 / per, "ms")

    # the ops count into ctx.counts in both halves, traced and untraced
    counts = {name: n / (2 * rounds) for name, n in ctx.counts.items()}
    nodes = counts.get("nodes", 0)
    prunes = {rule: counts.get(f"prune:{rule}", 0) for rule in PRUNE_RULES}
    decide_s = run.get("solver.decide", (0, 0.0))[1] / rounds
    out["solver.nodes"] = (nodes, "count")
    out["solver.us_per_node"] = (decide_s * 1e6 / nodes if nodes else 0.0, "us")
    tried = nodes + sum(prunes.values())
    out["solver.candidate_yield"] = (nodes / tried if tried else 0.0, "ratio")
    for rule, n in prunes.items():
        out[f"solver.prunes.{rule}"] = (n, "count")
    perturbed = counts.get("perturbed", 0)
    out["extraction.refuted_ratio"] = (
        counts.get("refuted", 0) / perturbed if perturbed else 0.0, "ratio"
    )
    out["render.svg_kb"] = (counts.get("svg_bytes", 0) / 1024, "KB")

    interpreter_ms = import_ms = 0.0
    if workload == "cli":
        interpreter_ms = _startup_ms(ctx, "pass")
        import_ms = _startup_ms(ctx, "import gadgetforge.cli") - interpreter_ms
    out["cli.interpreter_ms"] = (interpreter_ms, "ms")
    out["cli.import_ms"] = (import_ms, "ms")
    for name in CLI_SUBCOMMANDS:
        out[f"cli.{name}.ms"] = (tracer.median_duration(f"cli.{name}", "run") * 1e3, "ms")

    # both tallies hold the same ops in the same order, each pair back to back
    ratios = [t / u for u, t in zip(untraced.durations, traced.durations)]
    out["trace.overhead_pct"] = ((statistics.median(ratios) - 1) * 100, "%")
    out["failed_ratio"] = (traced.failed / len(traced.durations), "ratio")
    return out


def _startup_ms(ctx: Ctx, code: str) -> float:
    samples = []
    for _ in range(CLI_STARTUP_SAMPLES):
        t0 = time.perf_counter()
        status, _ = ctx.spawn([sys.executable, "-c", code])
        samples.append(time.perf_counter() - t0)
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
    return statistics.median(samples) * 1e3


def setup_seconds(workload: str, seed: int, env: dict, speed: Speed) -> float:
    """Median time from starting a fresh interpreter to the end of set-up
    (import and input generation), over SETUP_PROBES processes, each at the
    reference speed."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.PIPE)
        with child.stdout:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
        if child.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        speed.sample()
        samples.append(speed.scaled(t0, t1))
    return statistics.median(samples)


def measure(lib, workload: str, seed: int, seconds: float, trace: bool, *,
            max_ops: int | None = None, setup_probes: bool = True):
    """Set up and run one workload; returns (result, provenance)."""
    WORKDIR.mkdir(exist_ok=True)
    tracer = Tracer()
    tracer.enabled = trace
    speed = Speed()
    speed.sample()
    ctx = Ctx(lib, tracer, seed, ROOT, WORKDIR)
    ops = WORKLOADS[workload](ctx)
    tracer.enabled = False
    tracer.phase = "run"

    provenance = {
        "workload": workload,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "caps_per_root": CAPS,
        "ops_per_round": len(ops),
    }
    rounds = rounds_for(workload, seconds)
    if not trace:
        (tally,) = run_rounds(tracer, speed, ops, rounds, max_ops=max_ops)
        if workload == "cli":
            peak_kb = ctx.peak_child_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup_s = setup_seconds(workload, seed, ctx.env, speed) if setup_probes else 0.0
        metrics = end_to_end(tally, speed, setup_s, peak_kb)
        phases = [tally]
    else:
        # each op runs twice per round, so half the rounds fill the time
        phases = run_rounds(tracer, speed, ops, max(1, rounds // 2), traced=True,
                            max_ops=max_ops)
        metrics = per_layer(workload, ctx, tracer, *phases)
        metrics = {name: (_at_reference_speed(v, unit, speed.factor), unit)
                   for name, (v, unit) in metrics.items()}
        tracer.dump(WORKDIR / f"spans-{workload}-{seed}.json")
        tally = phases[1]

    _, tail_pct = tail(tally.durations)
    provenance.update(
        speed_factor=speed.factor,
        rounds=tally.rounds,
        samples=len(tally.durations),
        tail_percentile=round(tail_pct, 2),
        decisions_answered=f"{tally.answered}/{tally.asked}",
        unanswered=sorted(tally.unanswered),
    )
    attempted = sum(len(p.windows) for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, provenance


def _at_reference_speed(value: float, unit: str, factor: float) -> float:
    if unit in ("s", "ms", "us"):
        return value / factor
    if unit == "1/s":
        return value * factor
    return value


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    for a checkout that is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_library():
    """Import gadgetforge from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "gadgetforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gadgetforge sources under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("GADGETFORGE_THREADS", None)
    import gadgetforge

    if Path(gadgetforge.__file__).resolve().parent != (src / "gadgetforge").resolve():
        raise SystemExit(f"perfbench: imported gadgetforge from {gadgetforge.__file__}")
    return gadgetforge


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    lib = load_library()
    if args.setup_probe:
        WORKDIR.mkdir(exist_ok=True)
        WORKLOADS[args.workload](Ctx(lib, Tracer(), args.seed, ROOT, WORKDIR))
        print("ready", flush=True)
        return 0

    result, provenance = measure(lib, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
