"""One workload in one process: set-up, reference pass, timed passes, gate.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --work DIR

``run.py`` starts this with BLAS pinned to one thread and reads the JSON
object on the last line of its standard output.  With ``--setup-only`` it
stops after set-up and reports only the set-up times.

Pass 0 runs the ops as written and warms the process up; its outputs are the
reference that the gate checks and that every later pass must reproduce.
The later passes are timed, with ``--threads 1`` wherever an op sets
``--threads``, so that no timed op needs more than one of the machine's two
cores.  Every timed op and every set-up is scaled to reference speed by the
calibrations taken just before and just after it (see ``speed.py``).
Set-up is timed in ``SETUPS`` fresh ``--setup-only`` children started
between passes, spread evenly over the run; the reported set-up time is
their median.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 14  # fresh-interpreter set-ups per run


def import_program():
    """Import the CLI from this checkout's ``src``; returns (module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import approx_sense.cli as cli

    seconds = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"approx_sense was imported from {cli.__file__}, outside {ROOT}")
    return cli, seconds


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


@dataclass
class OpResult:
    name: str
    rc: object
    wall: float
    cpu: float
    scale: float = 1.0  # reference seconds per measured second
    digest: str = ""
    error: str = ""


@dataclass
class PassResult:
    wall: float
    cpu: float
    ops: list[OpResult] = field(default_factory=list)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _argv(op, out: Path, threads: str | None) -> list[str]:
    argv = list(op.argv)
    if threads is not None and "--threads" in argv:
        argv[argv.index("--threads") + 1] = threads
    return argv + ["--out", str(out)]


def run_pass(main, ops, out_root: Path, tracer=None, threads: str | None = None,
             calibrated: bool = False) -> PassResult:
    """Run every op once, closed loop; digests are taken after the timed loop.
    With ``calibrated``, a calibration runs before the first op and after
    every op, outside the ops' times, and each op is scaled by the mean of
    the two calibrations around it."""
    if calibrated:
        import speed

        before = speed.calibrate()
    results = []
    cpu0, t_pass = _cpu(), time.perf_counter()
    for op in ops:
        argv = _argv(op, out_root / op.name, threads)
        sink = io.StringIO()
        error = ""
        c0, t0 = _cpu(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = tracer.run_op(op.name, main, argv) if tracer else main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # an op that crashes is a failed op, the run goes on
            rc, error = "exception", traceback.format_exc()
        t1, c1 = time.perf_counter(), _cpu()
        factor = 1.0
        if calibrated:
            after = speed.calibrate()
            factor, before = speed.scale((before + after) / 2), after
        results.append(OpResult(op.name, rc, t1 - t0, c1 - c0, factor,
                                error=error or sink.getvalue()))
    result = PassResult(time.perf_counter() - t_pass, _cpu() - cpu0, results)
    for r in results:
        out = out_root / r.name
        r.digest = _digest(out) if out.is_dir() else ""
    return result


def run_setup(args, work: Path) -> dict:
    """Set up once more in a fresh interpreter; returns its set-up times,
    scaled to reference speed."""
    import speed

    before = speed.calibrate()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--work", str(work), "--setup-only"],
        capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
    )
    shutil.rmtree(work, ignore_errors=True)
    factor = speed.scale((before + speed.calibrate()) / 2)
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v * factor for k, v in times.items()}


def run_gate(ops, ref_root: Path, work: Path) -> dict[str, list[str]]:
    """Check the outputs under ``ref_root`` in a child process, so the
    gate's arrays do not count in this process's peak memory."""
    spec = work / "ops.json"
    spec.write_text(json.dumps([asdict(op) for op in ops]), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "gate.py"), str(spec), str(ref_root)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return {op.name: [f"gate crashed: {proc.stderr.strip()[-400:]}"] for op in ops}
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(spans_mod, spans, op_names) -> tuple[dict, float, dict]:
    """Per-layer metrics of one traced pass, the worst per-op self-time sum
    error, and self seconds per layer."""
    totals: dict[str, list] = {}
    extras: dict[str, float] = {}
    worst = 0.0
    by_op: dict[str, list] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)
        for key, amount in s.extra.items():
            extras[key] = extras.get(key, 0) + amount
    for name in op_names:
        op_spans = by_op.get(name, [])
        root = [s for s in op_spans if s.name == "cli.main"]
        per_name = spans_mod.self_times(op_spans)
        if root:
            wall = root[0].end - root[0].start
            worst = max(worst, abs(sum(v[1] for v in per_name.values()) - wall))
        for key, (calls, busy) in per_name.items():
            entry = totals.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += busy

    def calls(key):
        return float(totals.get(key, [0, 0.0])[0])

    def self_s(key):
        return totals.get(key, [0, 0.0])[1]

    ids = {s.id: s for s in spans}
    learner_wall = sum(
        s.end - s.start for s in spans
        if s.name == "learners.search"
        and (s.parent not in ids or ids[s.parent].name != "learners.search")
    )
    suite_wall = sum(s.end - s.start for s in spans if s.name == "validation.suite")
    loss_calls = extras.get("learners.loss_calls", 0.0)
    tw_calls = extras.get("learners.tw_calls", 0.0)
    patterns = extras.get("radgeom.exact.sign_patterns", 0.0)
    m = {
        "cli.main.self_ms": 1000.0 * self_s("cli.main") / max(1, len(op_names)),
        "dataio.read.calls": calls("dataio.read"),
        "dataio.read.self_s": self_s("dataio.read"),
        "dataio.read.bytes": extras.get("dataio.read.bytes", 0.0),
        "core.loss_values.calls": calls("core.loss_values"),
        "core.loss_values.self_s": self_s("core.loss_values"),
        "core.loss_values.elements": extras.get("core.loss_values.elements", 0.0),
        "core.transform_weights.calls": calls("core.transform_weights"),
        "core.transform_weights.self_s": self_s("core.transform_weights"),
        "core.feature_transform.calls": calls("core.feature_transform"),
        "core.feature_transform.self_s": self_s("core.feature_transform"),
        "core.apply_operator.calls": calls("core.apply_operator"),
        "synthetic.generate.calls": calls("synthetic.generate"),
        "synthetic.generate.self_s": self_s("synthetic.generate"),
        "sensitivity.empirical.calls": calls("sensitivity.empirical"),
        "sensitivity.empirical.self_s": self_s("sensitivity.empirical"),
        "sensitivity.analytic_upper.calls": calls("sensitivity.analytic_upper"),
        "sensitivity.analytic_upper.self_s": self_s("sensitivity.analytic_upper"),
        "sensitivity.expected.calls": calls("sensitivity.expected"),
        "sensitivity.expected.self_s": self_s("sensitivity.expected"),
        "sensitivity.expected.omega_draws": extras.get("sensitivity.expected.omega_draws", 0.0),
        "radgeom.exact.calls": calls("radgeom.exact"),
        "radgeom.exact.self_s": self_s("radgeom.exact"),
        "radgeom.exact.sign_patterns": patterns,
        "radgeom.exact.patterns_per_s": patterns / self_s("radgeom.exact") if patterns else 0.0,
        "radgeom.mc.calls": calls("radgeom.mc"),
        "radgeom.mc.self_s": self_s("radgeom.mc"),
        "radgeom.mc.sigma_draws": extras.get("radgeom.mc.sigma_draws", 0.0),
        "radgeom.closed_form.calls": calls("radgeom.closed_form"),
        "radgeom.closed_form.self_s": self_s("radgeom.closed_form"),
        "learners.search.calls": calls("learners.search"),
        "learners.search.self_s": self_s("learners.search"),
        "learners.loss_calls": loss_calls,
        "learners.us_per_loss_call": 1e6 * learner_wall / loss_calls if loss_calls else 0.0,
        "learners.distinct_qw_ratio": extras.get("learners.qw_distinct", 0.0) / tw_calls
        if tw_calls else 0.0,
        "learners.distinct_qw_per_w": extras.get("learners.qw_distinct", 0.0)
        / extras["learners.w_distinct"] if extras.get("learners.w_distinct") else 0.0,
        "bounds.calls": calls("bounds.report"),
        "bounds.self_s": self_s("bounds.report"),
        "validation.suite.self_s": self_s("validation.suite"),
        "validation.trials": calls("validation.trial"),
        "validation.trials_per_s": calls("validation.trial") / suite_wall if suite_wall else 0.0,
    }
    layers: dict[str, float] = {}
    for key, (_, busy) in totals.items():
        layer = spans_mod.layer_of(key)
        layers[layer] = layers.get(layer, 0.0) + busy
    return m, worst, layers


def _best(passes: list[PassResult], field: str = "wall") -> list[float]:
    """Each op's fastest raw time over the passes."""
    return [min(getattr(p.ops[i], field) for p in passes) for i in range(len(passes[0].ops))]


def _scaled_mean(passes: list[PassResult], field: str, ops: list[int]) -> list[float]:
    """Each op's mean time over the passes, in reference seconds: every
    measurement is scaled by the calibrations taken around it."""
    return [statistics.fmean(getattr(p.ops[i], field) * p.ops[i].scale for p in passes)
            for i in ops]


def _median_dict(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli, import_s = import_program()
    sys.path.insert(0, str(HERE))
    import spans as spans_mod
    import workloads

    ops = workloads.build(args.workload, args.seed, args.work / "inputs")
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    # Pass 0: warm-up and reference, with the ops as written.
    reference = run_pass(cli.main, ops, args.work / "pass0")
    plain: list[PassResult] = []
    traced: list[tuple[PassResult, object]] = []
    setups: list[dict] = []
    setup_wall = 0.0  # time spent in set-up children, not counted against --seconds
    t_begin = time.perf_counter()
    while True:
        k = len(plain) + len(traced)
        tracer = None
        if args.trace and k % 2 == 1:
            tracer = spans_mod.Tracer()
            spans_mod.install(tracer)
        out_root = args.work / f"pass{k + 1}"
        try:
            result = run_pass(cli.main, ops, out_root, tracer, threads="1",
                              calibrated=tracer is None)
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(out_root, ignore_errors=True)
        if tracer is None:
            plain.append(result)
        else:
            traced.append((result, tracer))
        elapsed = time.perf_counter() - t_begin - setup_wall
        while len(setups) < SETUPS * min(1.0, elapsed / args.seconds):
            t0 = time.perf_counter()
            setups.append(run_setup(args, args.work / f"setup{len(setups)}"))
            setup_wall += time.perf_counter() - t0
        # no pass may start that would end past --seconds, but every run
        # times at least one pass (one plain and one traced when tracing)
        if (plain and (traced or not args.trace)
                and elapsed * (k + 2) / (k + 1) > args.seconds):
            break
    while len(setups) < SETUPS:  # a run of few long passes ends before they are due
        setups.append(run_setup(args, args.work / f"setup{len(setups)}"))
    # The traced run measures thread scaling on one more, warm pass with
    # the ops as written.
    threaded = [i for i, op in enumerate(ops) if "--threads" in op.argv]
    as_written = None
    if args.trace and threaded:
        as_written = run_pass(cli.main, ops, args.work / "as_written")
        shutil.rmtree(args.work / "as_written", ignore_errors=True)

    # The gate checks pass 0; every timed pass must reproduce it byte for
    # byte, which for validate_coverage also checks --threads 1 against 2.
    problems = run_gate(ops, args.work / "pass0", args.work)
    shutil.rmtree(args.work / "pass0", ignore_errors=True)
    ref_digest = {r.name: r.digest for r in reference.ops}
    for r in reference.ops:
        if r.rc != 0:
            problems[r.name] = [f"reference pass exit {r.rc}: {r.error.strip()[-400:]}"]

    attempted = failed = 0
    failures: list[str] = []
    timed = plain + [r for r, _ in traced]
    for result in timed + ([as_written] if as_written else []):
        for r in result.ops:
            attempted += 1
            why = list(problems.get(r.name) or [])
            if r.rc != 0:
                why.append(f"exit {r.rc}: {r.error.strip()[-400:]}")
            elif r.digest != ref_digest[r.name]:
                why.append("output differs from the reference pass")
            if why:
                failed += 1
                failures.append(f"{r.name}: {'; '.join(why)}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "import_s": statistics.median(s["import_s"] for s in setups),
        "passes": len(timed),
    }
    if not args.trace:
        import speed

        own = [i for i, op in enumerate(ops) if not op.check.get("touch")]
        wall, cpu = _scaled_mean(plain, "wall", own), _scaled_mean(plain, "cpu", own)
        out["metrics"] = {
            "pass_s": sum(wall),
            "op_p50_ms": 1000.0 * statistics.median(wall),
            "cpu_s": sum(cpu),
            "peak_rss_mb": peak_rss_mb,
        }
        out["op_samples"] = len(wall)
        out["unscaled_pass_s"] = statistics.fmean(sum(p.ops[i].wall for i in own) for p in plain)
        out["calibration_ms"] = 1000.0 * speed.REF_S / statistics.median(
            p.ops[i].scale for p in plain for i in own)
    else:
        names = [op.name for op in ops]
        per_pass, layers_per_pass, worst = [], [], 0.0
        for result, tracer in traced:
            m, err, layers = layer_metrics(spans_mod, tracer.spans, names)
            per_pass.append(m)
            layers_per_pass.append({layer: layers.get(layer, 0.0) for layer in spans_mod.LAYERS})
            worst = max(worst, err)
        metrics = _median_dict(per_pass)
        written = as_written or plain[-1]
        validate = [i for i, op in enumerate(ops) if op.argv[0] == "validate"]
        wall = sum(written.ops[i].wall for i in validate)
        metrics["validation.cpu_per_wall"] = (
            sum(written.ops[i].cpu for i in validate) / wall if wall else 0.0)
        metrics["validation.thread_speedup"] = (
            statistics.fmean(sum(p.ops[i].wall for i in threaded) for p in plain)
            / sum(as_written.ops[i].wall for i in threaded) if as_written else 0.0)
        metrics["trace.overhead_ratio"] = (sum(_best([r for r, _ in traced]))
                                           / sum(_best(plain)))
        out["metrics"] = metrics
        out["layer_self_s"] = _median_dict(layers_per_pass)
        out["self_sum_error_s"] = worst
        out["unattributed_calls"] = sum(t.unattributed for _, t in traced)
        if worst > 1e-6:
            out["correct"] = False
            out["failures"].append(f"layer self times miss the op wall time by {worst:.3g} s")
        _write_spans(args, traced)
    print(json.dumps(out))
    return 0


def _write_spans(args, traced) -> None:
    """Spans stay in memory during the run and are written out at its end."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for k, (_, tracer) in enumerate(traced):
            for s in tracer.spans:
                fh.write(json.dumps({"pass": k, **asdict(s)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
