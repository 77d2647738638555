"""tools/compare_outputs.py: the byte-for-byte diff of two checkouts' outputs."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
