"""Which modules each entry point loads.  The package and the CLI import a
module only when one of its names is used, so each case runs in a fresh
interpreter and reads ``sys.modules`` at the end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
POINTSET = Path(__file__).parent / "fixtures" / "pointset.csv"

TRAIN = {
    "schema_version": 1, "seed": 7,
    "task": {"kind": "synthetic", "teacher_weights": [0.5, -0.5], "m_labelled": 20,
             "m_unlabelled": 30},
    "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0},
    "loss": {"kind": "clipped_absolute", "lipschitz": 1.0},
    "learner": {"algorithm": "lambda_erm", "lambda": 0.5,
                "domain": {"dim": 2, "halfwidth": 1.0, "mode": "grid", "points_per_axis": 5}},
}
BOUND = {"schema_version": 1, "bound": "joint",
         "params": {"err_min_approx": 0.12, "err_star": 0.1, "rad_HA": 0.05, "rho": 1.0,
                    "t": 0.1, "m": 50, "delta": 0.05}}
GENERATE = {"schema_version": 1, "seed": 3,
            "task": {"kind": "synthetic", "teacher_weights": [0.5, -0.5]}, "m": 5, "labelled": True}
SENSITIVITY = {"schema_version": 1, "kind": "empirical", "weights": [0.5, -0.5],
               "operator": {"kind": "uniform_quantizer", "step": 0.5, "clamp": 1.0}}


def _run(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a fresh interpreter with ``tmp`` bound to ``tmp_path``;
    returns the ``result`` dict it fills, plus the loaded modules."""
    script = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        tmp = Path(sys.argv[1])
        result = {}
    """) + textwrap.dedent(code) + textwrap.dedent("""
        result["modules"] = sorted(m for m in sys.modules
                                   if m.startswith("approx_sense") or m == "concurrent.futures")
        print(json.dumps(result))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _write(tmp_path: Path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_importing_the_cli_loads_only_errors(tmp_path):
    got = _run("import approx_sense.cli", tmp_path)
    assert got["modules"] == ["approx_sense", "approx_sense.cli", "approx_sense.errors"]


def test_the_package_loads_a_module_on_first_use(tmp_path):
    got = _run("""
        import approx_sense
        result["before"] = sorted(m for m in sys.modules if m.startswith("approx_sense."))
        from approx_sense import SearchDomain, learners
        result["same"] = SearchDomain is learners.SearchDomain
    """, tmp_path)
    assert got["before"] == []
    assert got["same"] is True
    assert "approx_sense.learners" in got["modules"]
    assert not set(got["modules"]) & {f"approx_sense.{m}" for m in
                                      ("cli", "dataio", "sensitivity", "synthetic", "validation")}


# command -> the modules it must not load; none loads concurrent.futures
COMMANDS = {
    "bound": {"learners", "validation", "synthetic", "sensitivity"},
    "generate": {"learners", "validation", "bounds", "radgeom", "sensitivity"},
    "rademacher": {"learners", "validation", "bounds"},
    "sensitivity": {"learners", "validation", "bounds", "radgeom"},
    "train": {"validation"},
    "validate": {"dataio"},
}


def _argv(tmp_path: Path, command: str) -> list[str]:
    if command == "sensitivity":
        sample = tmp_path / "sample.csv"
        sample.write_text("x0,x1\n0.5,0.25\n-0.5,0.75\n", encoding="utf-8")
        config = dict(SENSITIVITY, sample_path=str(sample))
        return ["sensitivity", "--config", _write(tmp_path, "sensitivity.json", config)]
    if command == "rademacher":
        return ["rademacher", "--pointset", str(POINTSET)]
    if command == "validate":
        return ["validate", "--suite", "crude_sandwich", "--trials", "2"]
    config = {"bound": BOUND, "generate": GENERATE, "train": TRAIN}[command]
    return [command, "--config", _write(tmp_path, f"{command}.json", config)]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_subcommand_loads_only_what_it_runs(tmp_path, command):
    got = _run(f"""
        from approx_sense.cli import main
        result["rc"] = main({_argv(tmp_path, command)!r} + ["--out", str(tmp / "out")])
    """, tmp_path)
    assert got["rc"] == 0
    loaded = set(got["modules"])
    assert not loaded & {f"approx_sense.{m}" for m in COMMANDS[command]}
    assert "concurrent.futures" not in loaded


def test_a_name_replaced_before_the_first_command_is_the_one_called(tmp_path):
    # the benchmark's tracer replaces cli's names with setattr at install time,
    # before any command has loaded them: the commands must call the
    # replacement, whether the name was resolved first (getattr) or not
    got = _run(f"""
        import functools
        import approx_sense.cli as cli
        calls = []

        def fake_suite(name, trials=None, seed=0, threads=1):
            calls.append(("run_suite", name))
            return real_suite(name, trials=trials, seed=seed, threads=threads)

        import approx_sense.validation
        real_suite = approx_sense.validation.run_suite
        cli.run_suite = fake_suite
        real_joint = cli.joint_bounds  # resolved, as the tracer's getattr does

        @functools.wraps(real_joint)
        def spy(**kwargs):
            calls.append(("joint_bounds", sorted(kwargs)))
            return real_joint(**kwargs)

        setattr(cli, "joint_bounds", spy)
        result["rc"] = [
            cli.main(["validate", "--suite", "crude_sandwich", "--trials", "2",
                      "--out", str(tmp / "v")]),
            cli.main(["bound", "--config", {_write(tmp_path, "bound.json", BOUND)!r},
                      "--out", str(tmp / "b")]),
        ]
        result["calls"] = calls
        result["bound"] = [cli.run_suite is fake_suite, cli.joint_bounds is spy]
    """, tmp_path)
    assert got["rc"] == [0, 0]
    assert got["calls"] == [["run_suite", "crude_sandwich"],
                            ["joint_bounds", sorted(BOUND["params"])]]
    assert got["bound"] == [True, True]
