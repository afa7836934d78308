"""sha256 of every output file of a fixed set of acflow CLI commands.

Usage, from the repository root:

    python3 tools/output_digests.py [--src DIR] [--workers W] > digests.txt
    python3 tools/output_digests.py --compare base.txt head.txt

The first form runs each command of COMMANDS as a fresh process on the
package under DIR (default: this checkout's ``src``) with ``--workers W``
(default 1), each into its own directory of a temporary directory, and
prints one ``file sha256`` line per output file, its path relative to the
temporary directory.  Each summary JSON that holds a ``pass`` key adds a
line ``file#pass true`` (or ``false``), so that a listing records the
verdicts beside the bytes.  It exits 1 when a command exits with any status
but 0, after printing what was written.  The outputs are meant to be
byte-identical from one commit to the next unless a change says why not:
run it on two checkouts with the same ``OPENBLAS_NUM_THREADS`` and compare.
They must not depend on the BLAS thread count or on W either: listings at
different values must be equal.

The second form prints a Markdown table of the entries of two such
listings, each marked same, changed, added or removed, and a ``#pass`` entry
that differs marked flipped, under a line counting the changed files and the
flipped verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (directory, CLI arguments); every command writes into its own directory.
# From N=16 on, numpy.linalg's and an unpinned LAPACK's factors of the
# implicit parity blocks round differently at one and two BLAS threads, so
# run-n32 checks the one-thread pin of the inverse that keeps N=32 bytes
# independent of the thread count.
COMMANDS = (
    ("run-n8", ("run",)),
    ("run-n12", ("run", "--set", "solver.n_modes=12", "--set", "solver.horizon=0.2")),
    ("run-n32", ("run", "--set", "solver.n_modes=32", "--set", "solver.horizon=0.01")),
    ("mc-energy", ("mc-energy", "--paths", "12")),
    ("mc-moment", ("mc-moment", "--paths", "24")),
    ("uniqueness", ("uniqueness",)),
    ("sweep-eps", ("sweep-eps", "--paths", "10", "--set", "sweep.snapshot_times=0,0.0104,0.05")),
    ("verify", ("verify", "--samples", "200")),
)


def digests(src: Path, workers: int = 1) -> tuple[list[str], list[str]]:
    """The ``file sha256`` lines of every command's outputs, run with
    ``--workers workers``, each summary JSON's ``file#pass`` verdict line
    after its own, and the commands that exited with a status other than
    0."""
    env = dict(os.environ, PYTHONPATH=str(src))
    lines, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
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


def _read(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.split() for line in fh if line.strip())


def compare(base: str, head: str) -> str:
    """A Markdown table of the entries of two digest listings, under a line
    that counts the files whose bytes changed and the verdicts that
    flipped."""
    old, new = _read(base), _read(head)
    rows = ["| file | status |", "| --- | --- |"]
    statuses = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new:
            status = "removed"
        elif name not in old:
            status = "added"
        elif old[name] == new[name]:
            status = "same"
        else:
            status = "flipped" if name.endswith("#pass") else "changed"
        statuses.append(status)
        rows.append(f"| `{name}` | {status} |")
    both = old.keys() & new.keys()
    verdicts = sum(name.endswith("#pass") for name in both)
    counts = (
        f"{statuses.count('changed')} of {len(both) - verdicts} files changed; "
        f"{statuses.count('flipped')} of {verdicts} verdicts flipped"
    )
    return counts + "\n\n" + "\n".join(rows) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding acflow")
    parser.add_argument("--workers", type=int, default=1, help="worker threads of every command")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"), help="compare two listings")
    args = parser.parse_args(argv)
    if args.compare:
        sys.stdout.write(compare(*args.compare))
        return 0
    lines, failed = digests(args.src.resolve(), args.workers)
    print("\n".join(lines))
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
