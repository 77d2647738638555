"""Best-of-N in-process time of each op in one benchmark workload's pass.

    python tools/op_times.py WORKLOAD [--checkout DIR] [--seed 7] [--repeat 5]

Builds the workload's inputs from the seed with CHECKOUT's (by default this
repository's) ``perfbench/workloads.py`` in a temporary directory, and runs
the pass REPEAT times in this one interpreter with CHECKOUT's
``perfbench/worker.run_pass`` and ``approx_sense.cli.main``; neither file is
changed.  Each op is timed as the benchmark times it, with its printed lines
discarded and its time scaled to reference speed by the calibrations taken
around it (``perfbench/speed.py``).  It prints each op's best scaled time in
ms and the sum of those bests.  Touch ops, which the benchmark leaves out of
its end-to-end times, are marked and left out of the sum.  An op that fails
(a non-zero exit or an exception) is named on stderr and makes the exit
status 1.  As ``compare_outputs.py``, it sets OPENBLAS_NUM_THREADS to 1 only
when unset.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def op_times(checkout: Path, workload: str, seed: int, repeat: int, work: Path):
    """([(name, touch)], name -> best scaled seconds, name -> first failure)
    of ``repeat`` passes of the workload's ops, built under ``work``."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import worker
    import workloads as wl
    from approx_sense.cli import main

    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {list(wl.WORKLOADS)}")
    ops = wl.build(workload, seed, work / "inputs")
    best = dict.fromkeys((op.name for op in ops), float("inf"))
    failed = {}
    for rep in range(repeat):
        for r in worker.run_pass(main, ops, work / "out" / str(rep), calibrated=True).ops:
            best[r.name] = min(best[r.name], r.wall * r.scale)
            if r.rc:
                failed.setdefault(r.name, f"{r.rc}: {r.error.strip()[-400:]}")
    return [(op.name, bool(op.check.get("touch"))) for op in ops], best, failed


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("workload")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    with tempfile.TemporaryDirectory(prefix="op_times-") as work:
        try:
            ops, best, failed = op_times(args.checkout.resolve(), args.workload, args.seed,
                                         args.repeat, Path(work))
        except ValueError as exc:
            parser.error(str(exc))
    print(f"{args.workload}, seed {args.seed}: best of {args.repeat} in-process passes,"
          " ms at reference speed")
    width = max(len(name) for name, _ in ops)
    for name, touch in ops:
        print(f"  {name:<{width}}  {best[name] * 1e3:9.2f}" + ("  (touch)" if touch else ""))
    total = sum(best[name] for name, touch in ops if not touch)
    print(f"  {'sum without touch ops':<{width}}  {total * 1e3:9.2f}")
    for name, why in failed.items():
        print(f"{name} failed, exit {why}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
