"""sha256 of every output file of a fixed set of acflow CLI commands.

Usage, from the repository root:

    python3 tools/output_digests.py [--src DIR] [--workers W] [--out OUT] > digests.txt
    python3 tools/output_digests.py --compare-values BASE_OUT HEAD_OUT

The first form runs each command of COMMANDS as a fresh process on the
package under DIR (default: this checkout's ``src``) with ``--workers W``
(default 1), each into its own directory of OUT (a new or empty directory;
by default a temporary one, removed afterwards), and prints one
``file sha256`` line per output file, its path relative to OUT.  Each summary JSON that holds a ``pass`` key adds a
line ``file#pass true`` (or ``false``), so that a listing records the
verdicts beside the bytes.  It exits 1 when a command exits with any status
but 0, after printing what was written.  The outputs are meant to be
byte-identical from one commit to the next unless a change says why not:
run it on two checkouts with the same ``OPENBLAS_NUM_THREADS`` and ``diff``
the listings, or compare the kept outputs' values with the second form.
They must not depend on the BLAS thread count or on W either: listings at
different values must be equal.

The second form compares the values of two such OUT directories, file by
file: the numeric columns of each CSV, the numbers of each JSON file (a
list of numbers counts as one column) and the velocity and pressure arrays
and time of each snapshot, as ``acflow.integrator.read_snapshot`` reads
them.  It prints a Markdown table of each file's
largest column-relative difference, max |base - head| / max |base| over a
column (a NaN that faces a NaN counts as equal, one that faces a number
as inf), with the column that reaches it, the non-numeric entries that
differ, and whether a summary's ``pass`` verdict flipped, under a line
giving the largest difference and the count of flipped verdicts.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after any acflow already on the path

from acflow.integrator import read_snapshot  # noqa: E402

# (directory, CLI arguments); every command writes into its own directory.
# From N=16 on, numpy.linalg's and an unpinned LAPACK's factors of the
# implicit parity blocks round differently at one and two BLAS threads, so
# run-n32 checks the one-thread pin of the inverse that keeps N=32 bytes
# independent of the thread count.  In sweep-eps-blowup path 0 blows up at
# eps = 0.1 (step 41) and 0.01 (step 44), inside a chunk of steps, which
# runs on past the blow-up; the sweep leaves the path out and exits 0.
# The -forced runs pin the |f|^2/delta and |f|^p terms of the energy and
# moment bounds, which the default zero force leaves at 0.
_FORCED = (
    "--set", "force.modes=1,1,1,0.4; 2,1,2,0.2",
    "--set", "noise.modes=1,1,1,0.05; 1,2,2,0.03",
)
COMMANDS = (
    ("run-n8", ("run",)),
    ("run-n12", ("run", "--set", "solver.n_modes=12", "--set", "solver.horizon=0.2")),
    ("run-n32", ("run", "--set", "solver.n_modes=32", "--set", "solver.horizon=0.01")),
    ("mc-energy", ("mc-energy", "--paths", "12")),
    ("mc-moment", ("mc-moment", "--paths", "24")),
    ("mc-energy-forced", ("mc-energy", "--paths", "12", *_FORCED)),
    ("mc-moment-forced", ("mc-moment", "--paths", "24", *_FORCED)),
    ("uniqueness", ("uniqueness",)),
    ("sweep-eps", ("sweep-eps", "--paths", "10", "--set", "sweep.snapshot_times=0,0.0104,0.05")),
    ("sweep-eps-blowup", (
        "sweep-eps", "--paths", "10", "--seed", "3",
        "--set", "solver.horizon=0.05", "--set", "sweep.noise_trace=1e4",
    )),
    ("verify", ("verify", "--samples", "200")),
)


def digests(src: Path, workers: int = 1, out: Path | None = None) -> tuple[list[str], list[str]]:
    """The ``file sha256`` lines of every command's outputs, run with
    ``--workers workers`` into the directory ``out`` (a temporary one when
    None), each summary JSON's ``file#pass`` verdict line after its own,
    and the commands that exited with a status other than 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    lines, failed = [], []
    keep = contextlib.nullcontext(out) if out is not None else tempfile.TemporaryDirectory()
    with keep as tmp:
        for name, argv in COMMANDS:
            out = Path(tmp) / name
            cmd = [
                sys.executable, "-m", "acflow.cli", *argv,
                "--workers", str(workers), "--quiet", "--out", str(out),
            ]
            status = subprocess.run(cmd, env=env).returncode
            if status != 0:
                failed.append(f"{name}: {' '.join(argv)} exited {status}")
            for path in sorted(out.rglob("*")) if out.is_dir() else ():
                if path.is_file():
                    data, name = path.read_bytes(), path.relative_to(tmp).as_posix()
                    lines.append(f"{name} {hashlib.sha256(data).hexdigest()}")
                    summary = json.loads(data) if path.suffix == ".json" else None
                    if isinstance(summary, dict) and "pass" in summary:
                        lines.append(f"{name}#pass {json.dumps(summary['pass'])}")
    return lines, failed


def _csv_columns(path: Path) -> dict:
    """The columns of a CSV output, past its ``#`` comment lines: a float
    array for a column whose every cell parses as a number, else the
    strings."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    if not rows:
        return {}
    columns = {}
    for i, name in enumerate(rows[0]):
        cells = [row[i] if i < len(row) else "" for row in rows[1:]]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = cells
    return columns


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_columns(value, key: str = "", out: dict | None = None) -> dict:
    """The leaves of a JSON document by their dotted keys: a float array
    for a number or a list of numbers, else the value itself."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _json_columns(v, f"{key}.{k}" if key else k, out)
    elif isinstance(value, list) and value and all(map(_is_number, value)):
        out[key] = np.array(value, dtype=float)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _json_columns(v, f"{key}[{i}]", out)
    elif _is_number(value):
        out[key] = np.array([value], dtype=float)
    else:
        out[key] = value
    return out


def _columns(path: Path) -> dict:
    if path.suffix == ".csv":
        return _csv_columns(path)
    if path.suffix == ".json":
        return _json_columns(json.loads(path.read_bytes()))
    if path.suffix == ".bin":
        state, _ = read_snapshot(path)
        return {"t": np.array([state.t]), "u": state.u, "p": state.p}
    return {}


def _relative(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| / max |a| over a column, a NaN on both sides counting as
    equal; inf where only b is nonzero, where a NaN faces a number or where
    the shapes differ."""
    if a.shape != b.shape:
        return float("inf")
    nan = np.isnan(a)
    differ = (a != b) & ~(nan & np.isnan(b))
    if not differ.any():
        return 0.0
    diff = np.max(np.abs(a[differ] - b[differ]))
    scale = np.max(np.abs(a), where=~nan, initial=0.0)
    return float(diff / scale) if scale > 0 and not np.isnan(diff) else float("inf")


def compare_values(base: Path, head: Path) -> str:
    """A Markdown table of the value differences of the files of two
    ``--out`` directories, under a line giving the largest
    column-relative difference and the verdicts that flipped."""
    names = sorted({
        p.relative_to(root).as_posix()
        for root in (base, head) for p in root.rglob("*") if p.is_file()
    })
    rows = [
        "| file | bytes | largest relative difference | column | non-numeric differences | verdict |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    worst, flipped, verdicts = (0.0, ""), 0, 0
    for name in names:
        old, new = base / name, head / name
        if not (old.is_file() and new.is_file()):
            rows.append(f"| `{name}` | {'added' if new.is_file() else 'removed'} | | | | |")
            continue
        same = old.read_bytes() == new.read_bytes()
        a, b = _columns(old), _columns(new)
        largest, column, other = 0.0, "", []
        for key in dict.fromkeys(list(a) + list(b)):
            x, y = a.get(key), b.get(key)
            if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                rel = _relative(x, y)
                if rel > largest:
                    largest, column = rel, key
            elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray) or x != y:
                other.append(key)
        verdict = ""
        if isinstance(a.get("pass"), bool) or isinstance(b.get("pass"), bool):
            verdicts += 1
            verdict = "same" if a.get("pass") == b.get("pass") else "flipped"
            flipped += verdict == "flipped"
            other = [k for k in other if k != "pass"]
        if largest > worst[0]:
            worst = (largest, f"`{name}` `{column}`")
        shown = ", ".join(f"`{k}`" for k in other[:4]) + (f" and {len(other) - 4} more" if len(other) > 4 else "")
        rows.append(
            f"| `{name}` | {'same' if same else 'changed'} | {largest:.2g} | "
            f"{f'`{column}`' if column else ''} | {shown} | {verdict} |"
        )
    head_line = (
        f"largest column-relative difference {worst[0]:.2g}"
        + (f" ({worst[1]})" if worst[1] else "")
        + f"; {flipped} of {verdicts} verdicts flipped"
    )
    return head_line + "\n\n" + "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding acflow")
    parser.add_argument("--workers", type=int, default=1, help="worker threads of every command")
    parser.add_argument("--out", type=Path, help="new or empty directory that keeps the outputs")
    parser.add_argument(
        "--compare-values", nargs=2, type=Path, metavar=("BASE_OUT", "HEAD_OUT"),
        help="compare the values of two --out directories",
    )
    args = parser.parse_args(argv)
    if args.compare_values:
        sys.stdout.write(compare_values(*args.compare_values))
        return 0
    if args.out is not None:
        if args.out.exists() and any(args.out.iterdir()):
            parser.error(f"--out {args.out} is not empty")
        args.out.mkdir(parents=True, exist_ok=True)
        args.out = args.out.resolve()
    lines, failed = digests(args.src.resolve(), args.workers, args.out)
    print("\n".join(lines))
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
