"""tools/compare_outputs.py: the byte-for-byte diff of two checkouts' outputs."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _outputs(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / "outputs" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    (root / "codes.json").write_text(json.dumps({"w/1/op": 0}))
    return root


def test_diff_names_the_first_differing_value_in_float_hex(tmp_path, capsys):
    a = _outputs(tmp_path / "a", {
        "w/1/op/r.json": json.dumps({"x": {"v": [1.0, 0.1, 3]}, "n": "a"}),
        "w/1/op/s.json": json.dumps({"a": 1}),
        "w/1/op/t.json": '{"a": 1.0}',
        "w/1/op/u.csv": "1,2\n",
    })
    b = _outputs(tmp_path / "b", {
        "w/1/op/r.json": json.dumps({"x": {"v": [1.0, 0.1 + 2**-56, 4]}, "n": "b"}),
        "w/1/op/s.json": json.dumps({"a": 1, "b": None}),
        "w/1/op/t.json": '{"a":1.0}',
        "w/1/op/u.csv": "1,2\n",
    })
    assert compare_outputs.diff(a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "DIFF  w/1/op/r.json  /x/v/1: 0x1.999999999999ap-4 -> 0x1.999999999999bp-4",
        "DIFF  w/1/op/s.json  /b: (missing) -> null",
        "DIFF  w/1/op/t.json  same JSON values, different bytes",
        "same  w/1/op/u.csv",
    ]
    assert compare_outputs.diff(a, a) == 0


def test_run_twice_on_one_checkout_gives_no_differences(tmp_path, capsys):
    # two runs in their own interpreters, one after the other: they share the
    # inputs under tmp_path/cmp_inputs, which each run writes before reading
    for name in ("a", "b"):
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "run", str(ROOT),
             str(tmp_path / name), "--workloads", "train_grid", "--seeds", "0"],
            check=True, capture_output=True, timeout=600,
        )
    assert compare_outputs.diff(tmp_path / "a", tmp_path / "b") == 0
    n = len(compare_outputs._digests(tmp_path / "a" / "outputs"))
    assert n > 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary == f"{n} files vs {n} files, 0 differences, exit codes [0] vs [0]"


@pytest.mark.parametrize("args, code", [
    (["--help"], 0), (["run", "--help"], 0), (["diff", "--help"], 0),
    ([], 2), (["run", "checkout"], 2), (["diff", "a"], 2), (["run", "c", "o", "--seeds", "x"], 2),
])
def test_usage_instead_of_a_traceback(args, code):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "compare_outputs.py"), *args],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert "usage: compare_outputs.py" in (done.stderr if code else done.stdout)


def _build(workload, seed, inputs):
    """A stand-in for perfbench's workloads.build: one config naming a sample."""
    inputs.mkdir()
    sample = inputs / "sample.csv"
    sample.write_text("x0\n1\n")
    config = inputs / "config.json"
    config.write_text(json.dumps({"sample_path": str(sample)}))
    return [("op", ("sensitivity", "--config", str(config)))]


def test_a_second_build_reuses_the_inputs_in_place(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # inputs leaves the working directory at its root
    root = tmp_path / "cmp_inputs"
    first = compare_outputs.inputs(_build, "w", 3, root)
    assert first == [("op", ("sensitivity", "--config", "w_3/config.json"))]
    assert Path.cwd() == root
    assert json.loads((root / "w_3" / "config.json").read_text()) == {"sample_path": "w_3/sample.csv"}
    (root / "w_3" / "sample.csv").write_text("kept\n")
    assert compare_outputs.inputs(_build, "w", 3, root) == first
    assert (root / "w_3" / "sample.csv").read_text() == "kept\n"
    assert os.listdir(root) == ["w_3"]  # the second build's copy is gone


def test_a_build_that_loses_the_rename_reads_the_winners_inputs(tmp_path, monkeypatch):
    # another run puts its copy in place while this one is still writing
    monkeypatch.chdir(tmp_path)
    root = tmp_path / "cmp_inputs"

    def racing_build(workload, seed, inputs):
        ops = _build(workload, seed, inputs)
        (root / "w_3").mkdir()
        (root / "w_3" / "config.json").write_text("winner")
        return ops

    ops = compare_outputs.inputs(racing_build, "w", 3, root)
    assert ops == [("op", ("sensitivity", "--config", "w_3/config.json"))]
    assert os.listdir(root) == ["w_3"]
    assert (root / "w_3" / "config.json").read_text() == "winner"
