"""Check that two checkouts write byte-identical outputs for the benchmark's ops.

    python tools/compare_outputs.py run CHECKOUT OUT [--workloads a,b] [--seeds 0,1,2026]
    python tools/compare_outputs.py diff OUT_A OUT_B

``run`` builds each workload's inputs from each seed (by default 0, 1 and
2026) with CHECKOUT's ``perfbench/workloads.py`` as
OUT/../cmp_inputs/WORKLOAD_SEED, and runs the ops from OUT/../cmp_inputs,
which their input paths are relative to; outputs that record an input path,
such as the provenance of sensitivity_empirical, do not depend on where OUT
is.  Each inputs directory is written in a private temporary directory
beside it and renamed into place, so runs at once never read a half-written
file: a run that finds the directory in place, or loses the rename, deletes
its own copy and reads the one in place.  Runs whose OUT directories share
a parent thus read the same input files.  The pseudo-workload ``suites`` is
not a benchmark workload: for each seed it runs ``validate --suite NAME
--seed SEED`` for every suite in CHECKOUT's ``SUITES``, each at its default
trial count.  It calls CHECKOUT's ``approx_sense.cli.main`` once per op with
a fresh ``--out`` directory, and records the exit codes.  ``diff`` compares
every output file byte for byte and exits 1 on any difference; for a JSON
file that differs it prints the first differing key path and both values,
floats in hex, so a change in the last bit shows as one.  Run ``run`` once
per checkout, each in its own interpreter; it keeps an OPENBLAS_NUM_THREADS
set in the environment and sets it to 1, as the benchmark does, only when
unset.  Outputs must not depend on the BLAS thread count either, so compare
at one and at two threads:

    for t in 1 2; do
        export OPENBLAS_NUM_THREADS=$t
        python tools/compare_outputs.py run PARENT cmp$t/a
        python tools/compare_outputs.py run CHANGE cmp$t/b
        python tools/compare_outputs.py diff cmp$t/a cmp$t/b
    done
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

DEFAULT_WORKLOADS = ("train_grid", "train_descent", "validate_coverage", "oracles", "suites")
MISSING = object()  # a key that one of two JSON objects lacks


def inputs(build, workload: str, seed: int, root: Path) -> list:
    """The ops of ``build(workload, seed, inputs)`` for the inputs directory
    ROOT/WORKLOAD_SEED.  They are built in a private temporary directory and
    renamed into place; where a directory is in place already, this copy is
    deleted and that one is read.  The ops' paths are relative to ROOT, which
    this leaves as the working directory."""
    name = f"{workload}_{seed}"
    root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f".{name}-", dir=root) as tmp:
        os.chdir(tmp)
        try:
            ops = build(workload, seed, Path(name))
        finally:
            os.chdir(root)
        try:
            os.rename(Path(tmp) / name, name)
        except OSError:  # another run's copy is in place: ours goes with tmp
            if not Path(name).is_dir():
                raise
    return ops


def run(checkout: Path, out: Path, workloads, seeds) -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is imported
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import workloads as wl
    from approx_sense.cli import main
    from approx_sense.validation import SUITES

    codes = {}
    for workload in workloads:
        for seed in seeds:
            if workload == "suites":
                ops = [(name, ["validate", "--suite", name, "--seed", str(seed)])
                       for name in SUITES]
            else:
                built = inputs(wl.build, workload, seed, out.parent / "cmp_inputs")
                ops = [(op.name, list(op.argv)) for op in built]
            for name, argv in ops:
                key = f"{workload}/{seed}/{name}"
                codes[key] = main(argv + ["--out", str(out / "outputs" / key)])
    (out / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True))


def _digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _first_difference(a, b, path: str = ""):
    """(key path, value in a, value in b) where two JSON values first differ,
    or None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}/{key}", a.get(key, MISSING), b.get(key, MISSING)
            found = _first_difference(a[key], b[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}/{i}")
            if found:
                return found
        return None if len(a) == len(b) else (f"{path}/length", len(a), len(b))
    return None if type(a) is type(b) and a == b else (path or "/", a, b)


def _show(value) -> str:
    if value is MISSING:
        return "(missing)"
    return value.hex() if isinstance(value, float) else json.dumps(value)


def _json_difference(pa: Path, pb: Path) -> str:
    """'path: a -> b' for the first differing value of two JSON files, floats in hex."""
    found = _first_difference(json.loads(pa.read_text()), json.loads(pb.read_text()))
    if found is None:
        return "same JSON values, different bytes"
    path, va, vb = found
    return f"{path}: {_show(va)} -> {_show(vb)}"


def diff(a: Path, b: Path) -> int:
    da, db = _digests(a / "outputs"), _digests(b / "outputs")
    ca = json.loads((a / "codes.json").read_text())
    cb = json.loads((b / "codes.json").read_text())
    bad = 0
    for key in sorted(set(da) | set(db)):
        same = da.get(key) == db.get(key)
        bad += not same
        detail = ""
        if not same and key.endswith(".json") and key in da and key in db:
            detail = "  " + _json_difference(a / "outputs" / key, b / "outputs" / key)
        print(("same  " if same else "DIFF  ") + key + detail)
    for key in sorted(set(ca) | set(cb)):
        if ca.get(key) != cb.get(key):
            bad += 1
            print(f"EXIT  {key}: {ca.get(key)} vs {cb.get(key)}")
    print(f"{len(da)} files vs {len(db)} files, {bad} differences, "
          f"exit codes {sorted(set(ca.values()))} vs {sorted(set(cb.values()))}")
    return 1 if bad else 0


def int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",")]


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the ops of one checkout into OUT")
    run_parser.add_argument("checkout", type=Path)
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("--workloads", type=lambda v: v.split(","),
                            default=list(DEFAULT_WORKLOADS))
    run_parser.add_argument("--seeds", type=int_list, default=[0, 1, 2026])
    diff_parser = sub.add_parser("diff", help="compare two runs' outputs byte for byte")
    diff_parser.add_argument("a", type=Path)
    diff_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    run(args.checkout.resolve(), args.out.resolve(), args.workloads, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(_main())
