"""approx-sense benchmark: one command for every workload.

    python3 perfbench/run.py --workload train_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  Each workload runs in its own worker
process with BLAS pinned to one thread.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The last line of standard output is one JSON object; the exit code is
non-zero when an output fails its correctness check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_grid", "train_descent", "validate_coverage", "oracles")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
UNITS = {"pass_s": "s", "op_p50_ms": "ms", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "cli.import_s": "s", "cli.main.self_ms": "ms", "learners.us_per_loss_call": "us",
         "radgeom.exact.patterns_per_s": "1/s", "validation.trials_per_s": "1/s",
         "dataio.read.bytes": "bytes", "learners.distinct_qw_ratio": "ratio",
         "learners.distinct_qw_per_w": "ratio",
         "validation.cpu_per_wall": "ratio", "validation.thread_speedup": "ratio",
         "trace.overhead_ratio": "ratio"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("self_s") else "count"


def _environment() -> dict[str, str]:
    env = dict(os.environ, **PINNED)
    env.pop("APPROX_SENSE_THREADS", None)  # the CLI's --threads default must stay 1
    env.pop("PYTHONPATH", None)  # the worker imports the program from this checkout only
    return env


def run_workload(args, workload: str, work: Path) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    env = dict(_environment(), TMPDIR=str(work))
    work.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if args.trace:
        result["metrics"]["cli.import_s"] = result["import_s"]
    else:
        result["metrics"]["setup_s"] = result["setup_s"]
    return result


def machine_info() -> dict:
    """Recorded with every run: what the numbers were measured on."""
    probe = ("import json, numpy; blas = numpy.show_config(mode='dicts')"
             "['Build Dependencies']['blas']; print(json.dumps([numpy.__version__, "
             "blas.get('name'), blas.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=_environment(), timeout=60, cwd=ROOT)
    numpy_version, blas, blas_version = (json.loads(out.stdout) if out.returncode == 0
                                         else [None] * 3)
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy_version, "blas": blas,
            "blas_version": blas_version, "pinned": PINNED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "approx_sense" / "cli.py").is_file():
        sys.stderr.write(f"no approx_sense sources under {ROOT / 'src'}; run from a checkout\n")
        return 2

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = {}
    try:
        for workload in selected:
            results[workload] = run_workload(args, workload, work_root / workload)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for workload, r in results.items():
        ratio = r["failed"] / r["attempted"]
        print(f"{workload}: {r['attempted']} ops in {r['passes']} passes, "
              f"fail_ratio {ratio:.4f} ({r['failed']}/{r['attempted']})"
              + (f", op_p50_ms over {r['op_samples']} ops" if "op_samples" in r else ""))
        if "calibration_ms" in r:
            print(f"  unscaled pass {r['unscaled_pass_s']:.4g} s, "
                  f"median calibration {r['calibration_ms']:.4g} ms")
        for name, value in r["metrics"].items():
            print(f"  {name:36s} {value:14.6g} {_unit(name)}")
        if args.trace:
            layers = ", ".join(f"{k} {v:.4g}" for k, v in r["layer_self_s"].items())
            print(f"  layer self s per pass: {layers}")
            print(f"  self-time sum error {r['self_sum_error_s']:.3g} s, "
                  f"unattributed calls {r['unattributed_calls']}")
        for failure in r["failures"]:
            print(f"  FAILED {failure}")

    def metric(name, value):
        return {"value": value, "unit": _unit(name)}

    if len(results) == 1:
        (r,) = results.values()
        metrics = {k: metric(k, v) for k, v in r["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": metric(k, v) for w, r in results.items()
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
