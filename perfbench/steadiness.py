"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out FILE]

Runs ``run.py --trace 0`` once per seed for each workload, one run at a time,
and reports for every end-to-end metric the median of the runs and their
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. With ``--out`` the per-run values
(with the run's ungated figures, such as ``wall_s``) and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range 'a-b' or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    if "-" in args.seeds:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(x) for x in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
            runs.append({"seed": seed, "exit": proc.returncode, "correct": result["correct"],
                         "failed": result["failed"], "attempted": result["attempted"],
                         **{k: v["value"] for k, v in result["metrics"].items()},
                         "not_gated": {k: v["value"] for k, v in record["also_measured"].items()}})
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"{workload:<18} {name:<12} median {median:<12.6g} spread {(q3 - q1) / median:.4f} "
                  f"bound {bound}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
