"""sha256 of every output file of a fixed set of acflow CLI commands.

Usage, from the repository root:

    python3 tools/output_digests.py [--src DIR] > digests.txt
    python3 tools/output_digests.py --compare base.txt head.txt

The first form runs each command of COMMANDS as a fresh process on the
package under DIR (default: this checkout's ``src``), each into its own
directory of a temporary directory, and prints one ``file sha256`` line per
output file, its path relative to the temporary directory.  It exits 1 when
a command exits with any status but 0, after printing what was written.  The
outputs are meant to be byte-identical from one commit to the next unless a
change says why not: run it on two checkouts with the same
``OPENBLAS_NUM_THREADS`` and compare.

The second form prints a Markdown table of the files of two such listings,
each marked same, changed, added or removed.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (directory, CLI arguments); every command writes into its own directory
COMMANDS = (
    ("run-n8", ("run",)),
    ("run-n12", ("run", "--set", "solver.n_modes=12", "--set", "solver.horizon=0.2")),
    ("mc-energy", ("mc-energy", "--paths", "12")),
    ("mc-moment", ("mc-moment", "--paths", "24")),
    ("uniqueness", ("uniqueness",)),
    ("sweep-eps", ("sweep-eps", "--paths", "10", "--set", "sweep.snapshot_times=0,0.0104,0.05")),
    ("verify", ("verify", "--samples", "200")),
)


def digests(src: Path) -> tuple[list[str], list[str]]:
    """The ``file sha256`` lines of every command's outputs, and the
    commands that exited with a status other than 0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    lines, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS:
            out = Path(tmp) / name
            cmd = [sys.executable, "-m", "acflow.cli", *argv, "--quiet", "--out", str(out)]
            status = subprocess.run(cmd, env=env).returncode
            if status != 0:
                failed.append(f"{name}: {' '.join(argv)} exited {status}")
            for path in sorted(out.rglob("*")) if out.is_dir() else ():
                if path.is_file():
                    sha = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{path.relative_to(tmp).as_posix()} {sha}")
    return lines, failed


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def compare(base: str, head: str) -> str:
    """A Markdown table of the files of two digest listings."""
    old, new = _read(base), _read(head)
    rows = ["| file | status |", "| --- | --- |"]
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            status = "removed"
        elif name not in old:
            status = "added"
        else:
            status = "same" if old[name] == new[name] else "changed"
        rows.append(f"| `{name}` | {status} |")
    return "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding acflow")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), help="compare two listings")
    args = parser.parse_args(argv)
    if args.compare:
        sys.stdout.write(compare(*args.compare))
        return 0
    lines, failed = digests(args.src.resolve())
    print("\n".join(lines))
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
