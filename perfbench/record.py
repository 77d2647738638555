"""Repeat the benchmark over seeds and record a trajectory point.

    python3 perfbench/record.py --runs 10 --commit 1345857 --out perfbench/BENCH_1.json
    python3 perfbench/record.py --runs 5 --workloads train_grid --traced 0

For each workload: ``--runs`` untraced runs with seeds 1..N, then
``--traced`` traced runs.  Prints, per end-to-end metric, the median, the
quartiles and the quartile spread as a share of the median next to the
metric's bound in BENCHMARK.json.  ``--out`` writes machine info, those
figures and the median per-layer metrics as one JSON file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, WORKLOADS, machine_info


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    if proc.returncode != 0 or not result["correct"]:
        print("\n".join(line for line in lines if "FAILED" in line), file=sys.stderr)
    return result


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--commit", default=None, help="commit of the measured program")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    selected = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    report = {"date": datetime.date.today().isoformat(), "commit": args.commit,
              "run_seconds": seconds,
              "machine": dict(machine_info(), cpu_model=_cpu_model()), "workloads": {}}
    ok = True
    for workload in selected:
        seeds = range(1, args.runs + 1)
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {},
                 "run_wall_s": [r["run_wall_s"] for r in runs]}
        print(f"{workload}: {entry['failed']}/{entry['attempted']} failed, "
              f"{max(entry['run_wall_s']):.1f} s longest run")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = dict(s, unit=runs[0]["metrics"][name]["unit"])
            limit = bounds[name] / 3
            flag = "" if s["spread"] < limit else "  <-- above bound/3"
            ok = ok and s["spread"] <= bounds[name]
            print(f"  {name:12s} median {s['median']:10.5g}  q1 {s['q1']:10.5g}  "
                  f"q3 {s['q3']:10.5g}  spread {s['spread']:.4f} (bound {bounds[name]}){flag}")
        if args.traced:
            traced = [_run(workload, seed, seconds, 1) for seed in seeds[: args.traced]]
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
