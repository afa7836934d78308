"""tools/output_digests.py --compare-values on small output directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from acflow.integrator import State, write_snapshot
from acflow.spaces import PressureField, VelocityField

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
_spec = importlib.util.spec_from_file_location("output_digests", _TOOL)
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)


def _outputs(root: Path, scale: float, verdict: bool, digest: str) -> Path:
    out = root / "cmd"
    out.mkdir(parents=True)
    (out / "run.csv").write_text(
        f"# manifest={digest}\nt,energy,lemma\n0.0,2.0,a\n0.5,{4.0 * scale!r},b\n"
    )
    summary = {"pass": verdict, "rates": [1.0, 2.0 * scale], "manifest": digest}
    (out / "run.json").write_text(json.dumps(summary))
    u = VelocityField(np.array([1.0, -8.0 * scale]), 1)
    write_snapshot(out / "final.bin", State(u, PressureField(np.array([3.0, 0.0]), 1), 0.5), digest)
    return root


def test_compare_values_reports_column_relative_differences_and_flips(tmp_path):
    base = _outputs(tmp_path / "base", 1.0, True, "a" * 64)
    head = _outputs(tmp_path / "head", 1.0 + 1e-13, False, "b" * 64)
    table = digests.compare_values(base, head)
    lines = table.splitlines()
    assert lines[0].startswith("largest column-relative difference 1e-13")
    assert lines[0].endswith("; 1 of 1 verdicts flipped")
    rows = {line.split(" | ")[0].strip("| `"): line for line in lines[4:]}
    # |4.0e-13| over the column's largest value, 4
    assert "| changed | 1e-13 | `energy` |" in rows["cmd/run.csv"]
    assert "| changed | 1e-13 | `rates` | `manifest` | flipped |" in rows["cmd/run.json"]
    # the velocity column's largest entry is 8; the digest is not a value
    assert "| changed | 1e-13 | `u` |" in rows["cmd/final.bin"]


def test_compare_values_of_equal_directories_is_all_zero(tmp_path):
    base = _outputs(tmp_path / "base", 1.0, True, "a" * 64)
    head = _outputs(tmp_path / "head", 1.0, True, "a" * 64)
    table = digests.compare_values(base, head)
    assert table.splitlines()[0] == "largest column-relative difference 0; 0 of 1 verdicts flipped"
    assert "changed" not in table and table.count("| same | 0 |") == 3
