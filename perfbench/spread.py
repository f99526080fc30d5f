"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads world population --seeds 1 2 3 4 5 \
        --seconds 45 [--save perfbench/work/set-a.json]

Runs are untraced and sequential, one process at a time. For every workload
and metric it prints the median, the first and third quartiles
(``statistics.quantiles`` with n=4) and the spread, the interquartile
distance as a share of the median, together with the share of failed
operations over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
    for line in proc.stderr.splitlines():
        if line.startswith("timings "):
            result["timings"] = json.loads(line[len("timings "):])
    return result


def summarise(results: list[dict]) -> dict[str, dict[str, float]]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": results[0]["metrics"][name]["unit"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--save", type=Path, help="write the raw results here as JSON")
    args = parser.parse_args()

    raw: dict[str, list[dict]] = {}
    for workload in args.workloads:
        raw[workload] = []
        for seed in args.seeds:
            raw[workload].append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
            if args.save:  # after every run, so that a stopped set keeps its runs
                args.save.parent.mkdir(parents=True, exist_ok=True)
                args.save.write_text(json.dumps({"seconds": args.seconds, "runs": raw}, indent=1))
        results = raw[workload]
        failed = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        print(f"{workload}: {len(results)} runs, failed share {failed:.4f}")
        for name, s in summarise(results).items():
            print(
                f"  {name:40s} median {s['median']:12.4f} q1 {s['q1']:12.4f} "
                f"q3 {s['q3']:12.4f} spread {s['spread']:7.2%} {s['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
