"""One timed acflow CLI invocation in a fresh process.

Usage: python child.py SPEC_JSON  (or  python child.py --env SRC)

SPEC_JSON holds ``src`` (the directory that contains the ``acflow``
package), ``cutoffs``, ``argv``, ``trace``, ``result`` and ``spans``.  The
process times ``import acflow.cli`` plus ``build_spaces`` at each cutoff
(set-up), then ``acflow.cli.main(argv)`` (wall), optionally under the span
tracer, and writes the timings, exit status, peak resident memory and layer
summary as JSON to ``result``.  ``--env SRC`` imports ``acflow.cli`` from SRC
(compiling its bytecode) and prints the library versions instead.

A fixed calibration loop runs right after set-up and again after the timed
call; its time tracks how fast the machine runs at that moment.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "writes_bytecode": not sys.flags.dont_write_bytecode,
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


@dataclass(frozen=True)
class _CalState:
    u: object
    t: float


def calibrate(steps: int = 4000) -> float:
    """Seconds for a fixed loop shaped like acflow's time step at N=8: grid
    synthesis and adjoint products, a Philox draw, a 128-unknown Cholesky
    solve, norms and a frozen state object per step.  It runs no acflow code,
    so a change to the program cannot move it."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(0)
    sin = rng.standard_normal((8, 40))
    w2d = rng.random((40, 40))
    m = rng.standard_normal((128, 128))
    factor = cho_factor(m @ m.T + 128.0 * np.eye(128))
    gram = rng.standard_normal((128, 128))
    modes = rng.standard_normal((8, 128))
    t0 = time.perf_counter()
    state = _CalState(np.zeros(128), 0.0)
    for i in range(steps):
        c = state.u.reshape(2, 8, 8)
        vals = 2.0 * (sin.T @ c @ sin)
        grads = np.stack([2.0 * (sin.T @ (s * c) @ sin) for s in (1.5, 0.5)])
        a = 0.5 * w2d * (vals[0] * grads[0] + vals[1] * grads[1])
        dual = np.stack([2.0 * (sin @ a[d] @ sin.T) for d in range(2)]).reshape(-1)
        seq = np.random.SeedSequence(7, spawn_key=(0, i))
        draw = np.random.Generator(np.random.Philox(seq)).standard_normal(8)
        xi = modes.T @ (0.03 * draw)
        u = cho_solve(factor, state.u - 1e-3 * dual + xi)
        float(np.linalg.norm(u)) + float(np.sqrt(max(u @ (gram @ u), 0.0)))
        state = _CalState(u, state.t + 1e-3)
    return time.perf_counter() - t0


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import acflow.cli
    from acflow.spaces import build_spaces

    for n in spec["cutoffs"]:
        build_spaces(n)
    setup_s = time.perf_counter() - t0
    cal_before = calibrate()

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        absent_sites = tracer.install()
    t1 = time.perf_counter()
    rc = acflow.cli.main(spec["argv"])
    wall_s = time.perf_counter() - t1
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
    cal_after = calibrate()

    out = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "cal_before_s": cal_before,
        "cal_after_s": cal_after,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["absent_sites"] = absent_sites
        tracer.dump(spec["spans"])
    return out


def main() -> int:
    if sys.argv[1] == "--env":
        sys.path.insert(0, sys.argv[2])
        import acflow.cli  # noqa: F401
        print(json.dumps(environment()))
        return 0
    spec = json.loads(sys.argv[1])
    out = run(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
