"""tools/output_digests.py --compare-values on small output directories."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from acflow.integrator import State, write_snapshot

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
    u = np.array([1.0, -8.0 * scale])
    write_snapshot(out / "final.bin", State(u, np.array([3.0, 0.0]), 0.5), digest)
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


def test_compare_values_counts_nan_as_equal_only_against_nan(tmp_path):
    # no default output holds a NaN (a rate over a zero sup is null); the
    # rule guards hand-made or future inputs: the same NaN on both sides is
    # no difference, a NaN facing a number an infinite one
    def outputs(name, rates):
        out = tmp_path / name / "cmd"
        out.mkdir(parents=True)
        (out / "sweep.json").write_text(json.dumps({"pass": True, "rates": rates}))
        (out / "sweep.csv").write_text(f"eps,rate\n0.1,{rates[0]!r}\n0.01,{rates[1]!r}\n")
        return tmp_path / name

    base, same = outputs("base", [float("nan"), 2.0]), outputs("same", [float("nan"), 2.0])
    other = outputs("other", [1.0, 2.0])
    table = digests.compare_values(base, same)
    assert table.splitlines()[0] == "largest column-relative difference 0; 0 of 1 verdicts flipped"
    assert table.count("| same | 0 |") == 2
    for old, new in ((base, other), (other, base)):
        assert digests.compare_values(old, new).startswith("largest column-relative difference inf")
