"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --out perfbench/BENCH_1.json

Every workload runs once per seed in SEEDS, each run `perfbench/run.py` in
its own process, one at a time, then once traced on the first seed.  For every
end-to-end metric the file keeps the values of all runs, their median,
quartiles (statistics.quantiles, n=4) and the spread (interquartile
distance over the median) next to the metric's bound from BENCHMARK.json.
The traced run adds the per-layer metrics.  Provenance comes from the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(600, 610)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, provenance, result = done.stdout.splitlines()
    return json.loads(result), json.loads(provenance)["provenance"]


def summarize(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    seeds = list(SEEDS)
    record = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        results, provenances = [], []
        for seed in seeds:
            result, provenance = one_run(workload, seed, seconds, 0)
            results.append(result)
            provenances.append(provenance)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        traced, traced_provenance = one_run(workload, seeds[0], seconds, 1)
        end_to_end = {
            m["name"]: dict(
                unit=m["unit"], better=m["better"],
                **summarize([r["metrics"][m["name"]]["value"] for r in results], m["bound"]),
            )
            for m in bench["end_to_end"]
        }
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "rounds": [p["rounds"] for p in provenances],
            "samples": [p["samples"] for p in provenances],
            "tail_percentile": [p["tail_percentile"] for p in provenances],
            "speed_factor": [p["speed_factor"] for p in provenances],
            "decisions_answered": provenances[0]["decisions_answered"],
            "unanswered": provenances[0]["unanswered"],
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_failed": traced["failed"],
        }
        record["provenance"] = {k: provenances[0][k] for k in
                                ("python", "nproc", "git_sha", "caps_per_root", "holdout_seed")}
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    worst = [
        f"{w}/{name} spread {m['spread']:.3f} > bound/3"
        for w, entry in record["workloads"].items()
        for name, m in entry["end_to_end"].items()
        if name != "setup_s" and m["spread"] > m["bound"] / 3
    ]
    for line in worst:
        print(f"baseline: {line}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
