"""A/B timing of the solver on the benchmark's two decision corpora.

    python3 tools/ab_decide.py OLD NEW [--rounds 8] [--seed 0]

OLD and NEW are checkouts of this repository.  Each checkout's
`src/gadgetforge` is imported under its own package name (`gf_old` and
`gf_new`), so both run in one process and take turns op by op.  The ops are
the `decide-witness` and `decide-exhaust` corpora of the benchmark, built by
`perfbench/workloads.py` of the checkout this script lives in, which is
imported and not modified; every op checks its own answer there, as in a
benchmark run.

Only the `decide_target` call of an op is timed.  Each round runs every op
once on each side, OLD first on even rounds and NEW first on odd ones.  Every
op must give a byte-identical `Decision.to_dict()` on both sides, in every
round.  The script prints, per op and per corpus, the minimum decide time of
each side over the rounds and the ratio NEW/OLD of those minima; a corpus
total is the sum of its per-op minima.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CORPORA = ("decide-witness", "decide-exhaust")


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
    keeps the result of the latest `solver.decide` call."""

    def __init__(self):
        self.last = None

    def call(self, layer: str, fn, *args, **kwargs):
        if layer != "solver.decide":
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.last = (time.perf_counter() - start, out)
        return out


def _ops(workloads, lib, corpus: str, seed: int):
    """The corpus's ops against `lib` by label, and the recorder they report
    their decisions to."""
    recorder = _Recorder()
    ctx = workloads.Ctx(lib, recorder, seed, HERE, HERE)
    return {label: op for label, op, _ in workloads.WORKLOADS[corpus](ctx)}, recorder


def _run(op, recorder) -> tuple[float, str]:
    ok, _ = op()
    if not ok:
        raise SystemExit("an op failed its own check")
    seconds, decision = recorder.last
    return seconds, json.dumps(decision.to_dict(), sort_keys=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    libs = {
        side: _load(f"gf_{side}", root.resolve() / "src" / "gadgetforge", True)
        for side, root in (("old", args.old), ("new", args.new))
    }
    workloads = _load("workloads", HERE / "perfbench" / "workloads.py")
    for corpus in CORPORA:
        ops = {side: _ops(workloads, lib, corpus, args.seed) for side, lib in libs.items()}
        labels = sorted(ops["old"][0])
        assert labels == sorted(ops["new"][0])
        best = {side: dict.fromkeys(labels, float("inf")) for side in libs}
        for r in range(args.rounds):
            sides = ("old", "new") if r % 2 == 0 else ("new", "old")
            for label in labels:
                seen = {}
                for side in sides:
                    table, recorder = ops[side]
                    seconds, seen[side] = _run(table[label], recorder)
                    best[side][label] = min(best[side][label], seconds)
                if seen["old"] != seen["new"]:
                    raise SystemExit(f"{corpus} {label}: the decisions differ")
        print(f"{corpus}: {len(labels)} ops, {args.rounds} rounds, identical decisions")
        print(f"  {'op':<28}{'old ms':>10}{'new ms':>10}{'new/old':>9}")
        for label in labels:
            old, new = best["old"][label] * 1e3, best["new"][label] * 1e3
            print(f"  {label:<28}{old:>10.2f}{new:>10.2f}{new / old:>9.3f}")
        old, new = (sum(best[side].values()) * 1e3 for side in ("old", "new"))
        print(f"  {'total':<28}{old:>10.1f}{new:>10.1f}{new / old:>9.3f}")


if __name__ == "__main__":
    main()
