"""The batched stepping kernel: a path's bytes do not depend on the block it
runs in, and equal the per-path step arithmetic the kernel replaced."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acflow import build_spaces
from acflow import integrator
from acflow.eps_limit import EpsSweepPlan, epsilon_sweep
from acflow.forcing import default_noise
from acflow.integrator import (
    DivergedPathError,
    GalerkinIntegrator,
    SolverConfig,
    State,
    project_initial,
)
from acflow.operators import bhat_operator, run_inequality_suite
from acflow.spaces import GridWorkspace, _cos_sin_integrals, scalar_pow

SERIES = ("times", "l2_u", "h1_u", "l4_u", "l2_p", "l2_div_u", "energy", "residual")


def _bhat(sp, u):
    """Convection pairings of one field, component by component, on the
    midpoint grid, with the rule's weight, the derivative factors and the
    DCT taken from the grid's tables."""
    g = sp.midpoint
    n = sp.n_modes
    c = u.reshape(2, n, n)
    uv = 2.0 * (g.sin.T @ c @ g.sin)
    gv = np.stack([2.0 * (g.dcos.T @ c @ g.sin), 2.0 * (g.sin.T @ c @ g.dcos)])
    t1 = gv[0] * uv[0]
    t2 = gv[1] * uv[1]
    b1 = uv[0] * uv
    b2 = uv[1] * uv
    pair = np.zeros((2, n, n))
    for d in range(2):
        left = g.sin_m @ t1[d] - g.dcos_m @ b1[d]
        right = t2[d] @ g.sin_m.T - b2[d] @ g.dcos_m.T
        pair[d] = left @ g.dct_sin + g.dct_sin.T @ right
    return pair.reshape(-1)


def _bhat_unfolded(sp, u):
    """Convection pairings of one field on the midpoint grid with no
    constant folded into a table: plain sine and cosine tables, scaled
    coefficients, the rule's weight 1/M^2 on the grid arrays, scaled
    results, and each pairing with sin(k pi x) as the series' DCT-II
    coefficients times the closed-form integrals."""
    g = sp.midpoint
    n, m = sp.n_modes, g.order
    j = np.arange(1, n + 1, dtype=float)
    sin, cos = np.sin(np.outer(j, np.pi * g.x)), np.cos(np.outer(j, np.pi * g.x))
    degrees = np.arange(2 * n + 1)
    dct = np.where(degrees == 0, 1.0, 2.0)[:, None] * np.cos(np.outer(degrees, np.pi * g.x))
    integrals = _cos_sin_integrals(n, degrees)
    c = u.reshape(2, n, n)
    uv = 2.0 * (sin.T @ c @ sin)
    cj = c * (np.pi * j[:, None])
    ck = c * (np.pi * j[None, :])
    gv = np.stack([2.0 * (cos.T @ cj @ sin), 2.0 * (sin.T @ ck @ cos)])
    t1 = uv[0] * gv[0] / m**2
    t2 = uv[1] * gv[1] / m**2
    b1 = uv[0] * uv / m**2
    b2 = uv[1] * uv / m**2
    jpi = np.pi * j
    pair = np.zeros((2, n, n))
    for d in range(2):
        # T1, b1: the rule in x, the DCT and closed forms in y; T2, b2: the reverse
        left = ((sin @ t1[d]) @ dct.T) @ integrals
        left -= (((cos @ b1[d]) @ dct.T) @ integrals) * jpi[:, None]
        right = integrals.T @ (dct @ (t2[d] @ sin.T))
        right -= (integrals.T @ (dct @ (b2[d] @ cos.T))) * jpi[None, :]
        pair[d] = left + right
    return pair.reshape(-1)


def reference_path(integ, initial, path_index):
    """One path through a plain per-path loop: one semi-implicit step and one
    set of scalar norms per step, as the kernel computes them for a row."""
    sp, cfg = integ.spaces, integ.config
    dt, eps = cfg.dt, cfg.eps
    g = sp.midpoint
    n = sp.n_modes
    c = 2.0 * _cos_sin_integrals(n)
    cross = np.stack([c, c.T])  # the Gram's off-diagonal blocks are kron(2C, 2C^T)

    def gram(p):
        return p + (cross @ p.reshape(2, n, n)[::-1] @ cross).reshape(-1)

    def pressure_l2(p):
        return float(np.sqrt(max(np.dot(p, gram(p)), 0.0)))

    def l4(u):
        v1, v2 = 2.0 * (g.sin.T @ u.reshape(2, sp.n_modes, sp.n_modes) @ g.sin)
        mag2 = v1 * v1 + v2 * v2
        return float((np.sum(mag2 * mag2) / g.order**2) ** 0.25)

    n_steps = cfg.n_steps
    out = {name: np.zeros(n_steps + 1) for name in SERIES}
    terms = ("dissipation", "work", "martingale", "convection_pairing")
    out.update({name: np.zeros(n_steps) for name in terms})
    out["kept_u"] = np.zeros((n_steps + 1, sp.n_velocity))  # the state of every step
    out["kept_p"] = np.zeros((n_steps + 1, sp.n_pressure))

    def record(m, u, p, t, res):
        out["times"][m] = t
        out["l2_u"][m] = float(np.linalg.norm(u))
        out["h1_u"][m] = float(np.sqrt(np.dot(sp.stiffness, u * u)))
        out["l4_u"][m] = l4(u)
        out["l2_p"][m] = pressure_l2(p)
        out["l2_div_u"][m] = pressure_l2(sp.div_diagonal * u)
        out["energy"][m] = out["l2_u"][m] ** 2 + eps * out["l2_p"][m] ** 2
        out["residual"][m] = res
        out["u"], out["kept_u"][m], out["kept_p"][m] = u, u, p

    u, p, t = initial.u, initial.p, initial.t
    record(0, u, p, t, 0.0)
    for m in range(1, n_steps + 1):
        bits = np.random.Philox(key=[cfg.seed, path_index], counter=[0, m - 1, 0, 0])
        normal = np.random.Generator(bits).standard_normal
        xi = integ.noise.modes.T @ (np.sqrt(dt) * normal(integ.noise.n_terms))
        bhat = _bhat(sp, u)
        grad_dual = -sp.div_diagonal * gram(p)
        rhs = u - dt * grad_dual - dt * bhat + dt * integ.force + xi
        # M^-1 rhs through the parity blocks: a gemv per block on the
        # right-hand side in class order, then back in the enumeration's
        u_new = (integ._inverse_blocks @ rhs[integ._gather]).reshape(-1)[integ._scatter]
        p_new = p - (dt / eps) * (sp.div_diagonal * u_new)
        energy_old = float(np.linalg.norm(u)) ** 2 + eps * pressure_l2(p) ** 2
        energy_new = float(np.linalg.norm(u_new)) ** 2 + eps * pressure_l2(p_new) ** 2
        h1 = float(np.sqrt(np.dot(sp.stiffness, u_new * u_new)))
        dissipation = 2.0 * cfg.nu * h1**2 * dt
        work = 2.0 * float(np.dot(integ.force, u_new)) * dt
        ito = integ.noise.trace * dt
        martingale = 2.0 * float(np.dot(xi, u))
        residual = (energy_new - energy_old) + dissipation - work - ito - martingale
        out["dissipation"][m - 1] = dissipation
        out["work"][m - 1] = work
        out["martingale"][m - 1] = martingale
        out["convection_pairing"][m - 1] = float(np.dot(bhat, u))
        u, p, t = u_new, p_new, t + dt
        record(m, u, p, t, residual)
    return out


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _dissipation(integ, rec):
    """The dissipation increments a record's h1_u series gives."""
    cfg = integ.config
    return 2.0 * cfg.nu * scalar_pow(rec.h1_u[..., 1:], 2) * cfg.dt


def _noisy_forced(n_modes):
    sp = build_spaces(n_modes)
    cfg = SolverConfig(n_modes=n_modes, dt=1e-3, horizon=0.015, seed=4242)
    force = sp.velocity_from_modes([(1, 1, 1, 0.4), (2, 1, 2, 0.2)])
    integ = GalerkinIntegrator(sp, cfg, force=force, noise=default_noise(sp, trace=0.05))
    return integ, project_initial(sp, "smooth", "low_mode")


@pytest.mark.parametrize("n_modes", [1, 4, 5, 8, 12])
def test_block_size_does_not_change_path_bytes(n_modes, monkeypatch):
    # at N=1 two of the four parity classes hold a padding slot alone
    integ, initial = _noisy_forced(n_modes)
    size = integrator.BLOCK_PATHS
    n_paths = size + 1  # at BLOCK_PATHS: two blocks of different sizes
    want = [reference_path(integ, initial, i) for i in range(n_paths)]
    keep = [15, 0, 7]
    for block, workers in ((1, 1), (7, 1), (size, 1), (size + 1, 1), (size, 3)):
        monkeypatch.setattr(integrator, "BLOCK_PATHS", block)
        recs = integ.run_path(initial, range(n_paths), workers=workers, keep_steps=keep)
        for i, ref in enumerate(want):
            rec = recs.take(i)
            for name in SERIES + ("u",):
                assert _bits(getattr(rec, name)) == _bits(ref[name]), (block, name)
            assert _bits(rec.kept_u) == _bits(ref["kept_u"][keep])
            assert _bits(rec.kept_p) == _bits(ref["kept_p"][keep])
            assert _bits(_dissipation(integ, rec)) == _bits(ref["dissipation"])
            assert _bits(rec.work_increment) == _bits(ref["work"])
            assert _bits(rec.martingale_increment) == _bits(ref["martingale"])
            assert _bits(rec.convection_pairing) == _bits(ref["convection_pairing"])


def test_threaded_parts_match_serial_under_preemption():
    integ, initial = _noisy_forced(4)
    integ = GalerkinIntegrator(
        integ.spaces, replace(integ.config, seed=77), force=integ.force, noise=integ.noise
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:  # threaded parts first, then the serial run
        threaded = integ.run_path(initial, range(12), workers=6)
    finally:
        sys.setswitchinterval(interval)
    serial = integ.run_path(initial, range(12), workers=1)
    assert threaded.paths.tolist() == list(range(12))
    assert _bits(serial.energy) == _bits(threaded.energy)
    assert _bits(serial.u) == _bits(threaded.u)


def test_many_rows_match_scalar_arithmetic(spaces2):
    # scalar powers (pow(x, 2) is not x * x in about one case in a thousand)
    # and reductions only show their rounding over many values
    cfg = SolverConfig(n_modes=2, dt=1e-3, horizon=2e-3, seed=9)
    integ = GalerkinIntegrator(spaces2, cfg, noise=default_noise(spaces2, n_terms=4))
    rng = np.random.default_rng(11)
    inits = [
        State(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        for _ in range(3000)
    ]
    rows = integ.run_path(inits, range(len(inits)))
    for i, init in enumerate(inits):
        rec, ref = rows.take(i), reference_path(integ, init, i)
        for name in ("l2_u", "h1_u", "l4_u", "l2_p", "energy", "residual"):
            assert _bits(getattr(rec, name)) == _bits(ref[name]), (i, name)
        assert _bits(_dissipation(integ, rec)) == _bits(ref["dissipation"])


def test_blown_up_row_leaves_the_other_rows_untouched(spaces2):
    # the data of test_blowup_raises_structured_error, between quiet rows
    cfg = SolverConfig(n_modes=2, dt=0.9, horizon=45.0, nu=1e-3, eps=1e-3)
    integ = GalerkinIntegrator(spaces2, cfg, noise=default_noise(spaces2, n_terms=4))
    huge = project_initial(spaces2, [(1, 1, 1, 3e5), (2, 2, 2, -2e5)], None)
    quiet = project_initial(spaces2, [(1, 1, 1, 1e-3)], None)
    inits = [quiet, huge, quiet, project_initial(spaces2, None, None)]
    keep = [50, 0, 1, 2]
    rows = integ.run_path(inits, [0, 1, 2, 3], keep_steps=keep)

    with pytest.raises(DivergedPathError) as solo_error:
        integ.run_path(huge, path_index=1)
    assert rows.diverged_at.tolist() == [-1, solo_error.value.step, -1, -1]
    with pytest.raises(DivergedPathError) as row_error:
        rows.raise_diverged()
    assert (str(row_error.value), row_error.value.energy) == (str(solo_error.value), solo_error.value.energy)
    # the blown row keeps its start, step 0; its other slots stay zero
    zero = np.zeros_like(huge.u)
    assert _bits(rows.kept_u[1]) == _bits(np.stack([zero, huge.u, zero, zero]))
    for i in (0, 2, 3):
        solo = integ.run_path(inits[i], path_index=i, keep_steps=keep)
        for name in SERIES + ("kept_u", "kept_p"):
            assert _bits(getattr(rows.take(i), name)) == _bits(getattr(solo, name)), (i, name)


def test_every_row_blown_up_keeps_the_whole_time_grid(spaces2):
    # the data of test_blown_up_row_leaves_the_other_rows_untouched: both
    # rows blow up at step 1, and the grid still runs to the horizon
    cfg = SolverConfig(n_modes=2, dt=0.9, horizon=45.0, nu=1e-3, eps=1e-3)
    integ = GalerkinIntegrator(spaces2, cfg, noise=default_noise(spaces2, n_terms=4))
    huge = project_initial(spaces2, [(1, 1, 1, 3e5), (2, 2, 2, -2e5)], None)
    quiet = project_initial(spaces2, [(1, 1, 1, 1e-3)], None)
    rows = integ.run_path(huge, [0, 1])
    assert rows.diverged_at.tolist() == [1, 1]
    assert _bits(rows.times) == _bits(integ.run_path(quiet, path_index=0).times)
    assert rows.times[-1] == pytest.approx(cfg.horizon)


def test_start_above_the_cap_diverges_at_step_0(spaces2):
    # an initial energy of 1e14 passes ENERGY_CAP before any step: the rows
    # end at step 0, with state 0's series written, and the error names
    # step 0 and the initial energy
    cfg = SolverConfig(n_modes=2, dt=0.9, horizon=45.0, nu=1e-3, eps=1e-3)
    integ = GalerkinIntegrator(spaces2, cfg, noise=default_noise(spaces2, n_terms=4))
    start = project_initial(spaces2, [(1, 1, 1, 1e7)], None)
    rows = integ.run_path(start, [0, 1])
    assert rows.diverged_at.tolist() == [0, 0]
    assert rows.energy[:, 0].tolist() == [1e14, 1e14]
    assert rows.l2_u[:, 0].tolist() == [1e7, 1e7]
    with pytest.raises(DivergedPathError) as error:
        integ.run_path(start, path_index=0)
    assert (error.value.step, error.value.energy) == (0, 1e14)
    assert "diverged at step 0: energy 1.000e+14" in str(error.value)


def test_sweep_excludes_exactly_the_blown_path(spaces4, monkeypatch):
    real = integrator.sample_increment

    def kick_path_2(noise, dt, key, **kwargs):
        kick = np.where(np.asarray(key[1]) == 2, 1e10, 1.0)
        return real(noise, dt, key, **kwargs) * kick[..., None]

    monkeypatch.setattr(integrator, "sample_increment", kick_path_2)
    plan = EpsSweepPlan(
        eps_values=(1e-1, 1e-2),
        base=SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=7),
        n_paths=5,
    )
    rep = epsilon_sweep(spaces4, plan, workers=2)
    assert [r.excluded_paths for r in rep.rows] == [1, 1]


def test_workspace_results_do_not_alias_later_calls(spaces4):
    # results handed out by a call on a block's buffers stay put when the
    # next call on the same buffers writes other rows' data there
    rng = np.random.default_rng(5)
    first, second = rng.standard_normal((2, 3, spaces4.n_velocity))
    grid = spaces4.midpoint
    work = GridWorkspace(grid, (3,))
    l4 = spaces4.l4_norm(first, work=work)
    pairs = bhat_operator(spaces4, first, work=work)
    out = np.empty_like(first)
    bhat_operator(spaces4, first, work=work, out=out)
    kept = pairs.tobytes(), l4.tobytes()
    fresh = bhat_operator(spaces4, first), spaces4.l4_norm(first)
    assert kept == tuple(a.tobytes() for a in fresh)
    assert out.tobytes() == kept[0]
    spaces4.l4_norm(second, work=work)
    bhat_operator(spaces4, second, work=work)
    assert (pairs.tobytes(), l4.tobytes(), out.tobytes()) == kept + kept[:1]
    # each step's L4 norm and convection on the same buffers, for other rows
    # and for rows seen before, and on buffers of fewer rows filled by the
    # synthesis alone, give the bits of fresh calls
    a, b = rng.standard_normal((2, 3, spaces4.n_velocity))
    for rows in (a, b, a):
        assert spaces4.l4_norm(rows, work=work).tobytes() == spaces4.l4_norm(rows).tobytes()
        got = bhat_operator(spaces4, rows, work=work)
        assert got.tobytes() == bhat_operator(spaces4, rows).tobytes()
    left = GridWorkspace(grid, (2,))
    spaces4._grid_values(a[[0, 2]], left)
    got = bhat_operator(spaces4, a[[0, 2]], work=left)
    assert got.tobytes() == bhat_operator(spaces4, a[[0, 2]]).tobytes()


@pytest.mark.parametrize("n_modes", [8, 12, 16])
@pytest.mark.parametrize("n_rows", [1, 20])
def test_folded_transforms_match_per_component_arithmetic(n_modes, n_rows):
    # the doubled tables and the shared product planes give the bits of the
    # plain 2 * (...) transforms and four products: on fresh arrays, and on
    # a block's buffers filled by an L4 norm or by the synthesis alone, as
    # bhat_operator fills a workspace of its own, for coefficient rows and
    # blocks
    sp = build_spaces(n_modes)
    g = sp.midpoint
    rows = np.random.default_rng(n_modes).standard_normal((n_rows, sp.n_velocity))
    want = np.stack([_bhat(sp, row) for row in rows])
    vals = np.stack([2.0 * (g.sin.T @ row.reshape(2, n_modes, n_modes) @ g.sin) for row in rows])
    assert bhat_operator(sp, rows).tobytes() == want.tobytes()
    for by_l4_norm in (True, False):
        work = GridWorkspace(g, (n_rows,))
        if by_l4_norm:
            sp.l4_norm(rows, work=work)
        else:
            sp._grid_values(rows, work)
        assert work.values.tobytes() == vals.tobytes()
        assert bhat_operator(sp, rows, work=work).tobytes() == want.tobytes()
        out = np.empty_like(rows)
        bhat_operator(sp, rows, work=work, out=out)
        assert out.tobytes() == want.tobytes()
        # the rows as coefficient blocks, as a step passes them
        blocks = np.empty((n_rows, 2, n_modes, n_modes))
        assert bhat_operator(sp, rows.reshape(blocks.shape), work=work, out=blocks) is blocks
        assert blocks.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_modes", [2, 8, 12, 16, 32])
def test_folded_constants_change_the_pairings_at_round_off_only(n_modes):
    # folding the weight, the derivative factors and the DCT with its
    # closed-form integrals into the tables reorders the products, so the
    # pairings move at round-off, and the null pairing <B(u), u> = 0 still
    # holds to round-off
    sp = build_spaces(n_modes)
    rows = np.random.default_rng(n_modes).standard_normal((20, sp.n_velocity))
    got = bhat_operator(sp, rows)
    want = np.stack([_bhat_unfolded(sp, row) for row in rows])
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-14 * scale
    assert np.max(np.abs(np.sum(got * rows, axis=1))) <= 1e-13 * scale


def test_held_squares_survive_a_convection(spaces8):
    # the convection writes only the cross plane u1 u2, so the values and
    # squares the L4 norm left in the buffers keep the bits of a fresh
    # synthesis and serve a second convection of the same rows
    rows = np.random.default_rng(3).standard_normal((5, spaces8.n_velocity))
    g = spaces8.midpoint
    work = GridWorkspace(g, (5,))
    first = spaces8.l4_norm(rows, work=work)
    pairs = bhat_operator(spaces8, rows, work=work)
    fresh = GridWorkspace(g, (5,))
    spaces8._grid_values(rows, fresh)
    vals = fresh.values
    assert work.values.tobytes() == vals.tobytes()
    assert work.squares.tobytes() == (vals * vals).tobytes()
    again = bhat_operator(spaces8, rows, work=work)
    assert first.tobytes() == spaces8.l4_norm(rows).tobytes()
    assert pairs.tobytes() == again.tobytes() == bhat_operator(spaces8, rows).tobytes()


def _chunk_bytes(integ, n_rows, steps):
    """A CHUNK_BYTES that gives a block of n_rows rows chunks of ``steps``
    steps: per row and step, the increments, six velocity-sized arrays
    (velocity, noise sum, convection pairings and three temporaries), the
    pressure and its G p, the plane u1^2 + u2^2 on the M^2 midpoint grid
    and four norms."""
    sp = integ.spaces
    per_step = 6 * sp.n_velocity + 2 * sp.n_pressure + sp.midpoint.order**2 + integ.noise.n_terms + 4
    return steps * 8 * n_rows * per_step


def test_noise_chunks_do_not_change_path_bytes(spaces8, monkeypatch):
    # K = 2N^2 noise terms: a block of 20 rows runs 4 steps a chunk, so 120
    # steps take 30 sample_increment calls, one-step chunks 120
    cfg = SolverConfig(n_modes=8, dt=1e-3, horizon=0.12, seed=3)
    noise = default_noise(spaces8, trace=0.05, n_terms=spaces8.n_velocity)
    integ = GalerkinIntegrator(spaces8, cfg, noise=noise)
    initial = project_initial(spaces8, "smooth", "low_mode")
    real, calls = integrator.sample_increment, []

    def counted(*args, **kwargs):
        calls.append(args[2][2])
        return real(*args, **kwargs)

    monkeypatch.setattr(integrator, "sample_increment", counted)
    chunked = integ.run_path(initial, range(20))
    assert [(s.start, s.stop) for s in calls] == [(m, m + 4) for m in range(0, 120, 4)]
    monkeypatch.setattr(integrator, "CHUNK_BYTES", 1)
    stepped = integ.run_path(initial, range(20))
    assert len(calls) == 30 + 120
    for name in SERIES:
        assert _bits(getattr(chunked, name)) == _bits(getattr(stepped, name)), name


def test_a_long_one_row_block_holds_less_than_a_chunk_beyond_its_record():
    # at N=1 a row's chunk arrays take 248 bytes a step, so CHUNK_BYTES
    # alone gives one-row chunks of 4228 steps, and a block binds a slot of
    # views for each (7.6 MiB traced over 5000 steps); CHUNK_STEPS caps it
    spaces = build_spaces(1)
    cfg = SolverConfig(n_modes=1, dt=1e-3, horizon=5.0)
    integ = GalerkinIntegrator(spaces, cfg, noise=default_noise(spaces))
    initial = project_initial(spaces, None, None)
    tracemalloc.start()
    try:
        rec = integ.run_path(initial, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in vars(rec).values() if isinstance(a, np.ndarray))
    assert cfg.n_steps == 5000 and held > 400_000
    assert peak - held < integrator.CHUNK_BYTES


def _whole_record(rec):
    """Every array of a PathRecord, the step terms, the kept states and the
    blow-up steps included."""
    names = SERIES + rec.STEP_TERMS + ("u", "p", "kept_u", "kept_p", "paths", "diverged_at")
    return {name: _bits(getattr(rec, name)) for name in names}


def _run_chunked(monkeypatch, integ, inits, paths, n_rows, steps, keep_steps=()):
    """run_path with chunks of ``steps`` steps for a block of n_rows rows,
    keeping the states of ``keep_steps``, and the spans its
    sample_increment calls drew."""
    real, spans = integrator.sample_increment, []

    def counted(*args, **kwargs):
        spans.append((args[2][2].start, args[2][2].stop))
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(integrator, "sample_increment", counted)
        if steps is not None:
            patch.setattr(integrator, "CHUNK_BYTES", _chunk_bytes(integ, n_rows, steps))
        return integ.run_path(inits, paths, keep_steps=keep_steps), spans


@pytest.mark.parametrize("steps", [1, 3, 7])
def test_chunk_boundaries_do_not_change_a_block(steps, monkeypatch):
    # a 5-row block and a one-row block, the shape of a single long path,
    # over 15 steps: chunks of 1, 3 and 7 steps (the last of them cut short
    # by the horizon) against the default chunking, one chunk, keeping
    # states on and off the chunk ends
    integ, initial = _noisy_forced(4)
    keep = [15, 3, 0, 7, 8]
    for n_rows in (5, 1):
        paths = range(n_rows)
        default, spans = _run_chunked(monkeypatch, integ, initial, paths, n_rows, None, keep)
        assert spans == [(0, 15)]
        rec, spans = _run_chunked(monkeypatch, integ, initial, paths, n_rows, steps, keep)
        assert spans == [(m, min(m + steps, 15)) for m in range(0, 15, steps)]
        assert _whole_record(rec) == _whole_record(default), n_rows


@pytest.mark.parametrize("steps", [1, 3, 7])
def test_chunk_boundaries_do_not_change_a_blow_up(spaces2, steps, monkeypatch):
    # the data of test_blown_up_row_leaves_the_other_rows_untouched: row 1
    # blows up at step 1, the first of a chunk of 1, 3, 7 or (by default) 50
    # steps, which ends there; the rows left start again as a block at the
    # blow-up, in chunks sized for three rows
    cfg = SolverConfig(n_modes=2, dt=0.9, horizon=45.0, nu=1e-3, eps=1e-3)
    integ = GalerkinIntegrator(spaces2, cfg, noise=default_noise(spaces2, n_terms=4))
    huge = project_initial(spaces2, [(1, 1, 1, 3e5), (2, 2, 2, -2e5)], None)
    quiet = project_initial(spaces2, [(1, 1, 1, 1e-3)], None)
    inits = [quiet, huge, quiet, project_initial(spaces2, None, None)]
    keep = [0, 1, 2, 3, 50]
    default, spans = _run_chunked(monkeypatch, integ, inits, [0, 1, 2, 3], 4, None, keep)
    assert default.diverged_at.tolist() == [-1, 1, -1, -1]
    assert spans == [(0, 50), (1, 50)]
    rec, spans = _run_chunked(monkeypatch, integ, inits, [0, 1, 2, 3], 4, steps, keep)
    assert spans[0] == (0, steps) and spans[1][0] == 1
    assert _whole_record(rec) == _whole_record(default)


@pytest.mark.parametrize("steps", [1, 3, 7])
def test_chunk_boundaries_do_not_change_the_kept_states(spaces4, steps, monkeypatch):
    # every step's states kept, the same under any chunking: row 2 blows up
    # at step 3, so its slots are zero from there on, and the rows left keep
    # the states of their solo runs
    cfg = SolverConfig(n_modes=4, dt=0.05, horizon=0.5, nu=1e-3, eps=1e-2, seed=5)
    integ = GalerkinIntegrator(spaces4, cfg, noise=default_noise(spaces4, trace=0.05))
    quiet = project_initial(spaces4, "smooth", "low_mode")
    inits = [quiet, quiet, project_initial(spaces4, [(1, 1, 1, 100.0), (2, 3, 2, -100.0)], None)]
    every = range(cfg.n_steps + 1)
    default, _ = _run_chunked(monkeypatch, integ, inits, range(3), 3, None, every)
    assert default.diverged_at.tolist() == [-1, -1, 3]
    assert not default.kept_u[2, 3:].any() and not default.kept_p[2, 3:].any()
    assert default.kept_u[2, :3].any(axis=1).all()
    solo = integ.run_path(quiet, path_index=1, keep_steps=every)
    assert _bits(default.kept_u[1]) == _bits(solo.kept_u)
    assert _bits(default.kept_p[1]) == _bits(solo.kept_p)
    assert _bits(default.kept_u[1, -1]) == _bits(default.u[1])
    rec, _ = _run_chunked(monkeypatch, integ, inits, range(3), 3, steps, every)
    assert _whole_record(rec) == _whole_record(default)


def test_kept_steps_are_distinct_steps_of_the_grid(spaces2):
    cfg = SolverConfig(n_modes=2, dt=1e-3, horizon=5e-3)
    integ = GalerkinIntegrator(spaces2, cfg)
    initial = project_initial(spaces2, "low_mode", None)
    for bad in ([1, 1], [-1], [6], [0, 5, 6]):
        with pytest.raises(ValueError, match="keep_steps"):
            integ.run_path(initial, path_index=0, keep_steps=bad)
    rec = integ.run_path(initial, range(3))
    assert rec.kept_u.shape == (3, 0, spaces2.n_velocity)
    assert rec.kept_p.shape == (3, 0, spaces2.n_pressure)
    assert rec.take(1).kept_u.shape == (0, spaces2.n_velocity)


def test_inequality_suite_interleaved_with_stepping_keeps_bytes():
    integ, initial = _noisy_forced(4)
    sp = integ.spaces
    suite = run_inequality_suite(6, 3, cutoffs=(2, 4))[0]
    solo = integ.run_path(initial, range(5))
    rng = np.random.default_rng(8)
    suites, calls, step = [], [], integ.step

    def interleaved(*args):
        # other operator work on the same spaces before each of the block's
        # 15 steps, and a suite before every fourth
        other = rng.standard_normal((4, sp.n_velocity))
        bhat_operator(sp, other)
        sp.l4_norm(other)
        if len(calls) % 4 == 0:
            suites.append(run_inequality_suite(6, 3, cutoffs=(2, 4))[0])
        calls.append(step)
        return step(*args)

    integ.step = interleaved
    mixed = integ.run_path(initial, range(5))
    assert len(suites) == 4 and all(rows == suite for rows in suites)
    for name in SERIES + ("u",):
        assert _bits(getattr(solo, name)) == _bits(getattr(mixed, name)), name


def test_block_shrunk_by_divergence_matches_solo_runs(spaces4):
    # rows 0 and 2 blow up at different steps; the rows left start again as
    # a new block at each blow-up and must equal their solo runs
    cfg = SolverConfig(n_modes=4, dt=0.05, horizon=1.0, nu=1e-3, eps=1e-2, seed=5)
    integ = GalerkinIntegrator(spaces4, cfg, noise=default_noise(spaces4, trace=0.05))
    quiet = project_initial(spaces4, "smooth", "low_mode")
    inits = [
        project_initial(spaces4, [(1, 1, 1, 30.0), (2, 3, 2, -30.0)], None),
        quiet,
        project_initial(spaces4, [(1, 1, 1, 100.0), (2, 3, 2, -100.0)], None),
        quiet,
        project_initial(spaces4, None, None),
    ]
    keep = [20, 2, 3, 4, 5]
    rows = integ.run_path(inits, range(5), keep_steps=keep)
    assert rows.diverged_at.tolist() == [4, -1, 3, -1, -1]
    assert not rows.kept_u[0, [0, 3, 4]].any() and rows.kept_u[0, [1, 2]].any(axis=1).all()
    assert not rows.kept_u[2, [0, 2, 3, 4]].any() and rows.kept_u[2, 1].any()
    for i in (1, 3, 4):
        solo, row = integ.run_path(inits[i], path_index=i, keep_steps=keep), rows.take(i)
        for name in SERIES + ("u", "kept_u", "kept_p"):
            assert _bits(getattr(row, name)) == _bits(getattr(solo, name)), (i, name)
        for name in ("residual", "martingale_increment", "convection_pairing"):
            assert _bits(getattr(row, name)) == _bits(getattr(solo, name))


def test_blow_up_inside_a_chunk_runs_on_to_inf_without_a_warning(spaces4, monkeypatch):
    # row 0 passes the cap at step 4 of a 20-step chunk, whose later steps
    # still run for it and reach inf or NaN before the chunk ends; no
    # warning escapes (pytest turns one into an error), numpy's error state
    # is left as it was, and the record is that of one-step chunks, which
    # stop at the blow-up, with every row equal to its solo run
    cfg = SolverConfig(n_modes=4, dt=0.05, horizon=1.0, nu=1e-3, eps=1e-2, seed=5)
    integ = GalerkinIntegrator(spaces4, cfg, noise=default_noise(spaces4, trace=0.05))
    quiet = project_initial(spaces4, "smooth", "low_mode")
    inits = [project_initial(spaces4, [(1, 1, 1, 30.0), (2, 3, 2, -30.0)], None), quiet, quiet]
    keep = [20, 0, 3, 4, 5]
    finite, step = [], integ.step

    def watched(*args):
        step(*args)
        finite.append(np.isfinite(args[0].u_new).all(axis=-1))  # the slot's new velocities

    integ.step = watched
    state = np.geterr()
    default, spans = _run_chunked(monkeypatch, integ, inits, range(3), 3, None, keep)
    assert np.geterr() == state
    assert spans == [(0, 20), (4, 20)]
    blown_row = [bool(f[0]) for f in finite[:20]]
    assert all(blown_row[:4]) and not all(blown_row)
    one_step, spans = _run_chunked(monkeypatch, integ, inits, range(3), 3, 1, keep)
    assert np.geterr() == state
    assert spans == [(m, m + 1) for m in range(4)] + [(m, m + 1) for m in range(4, 20)]
    assert _whole_record(one_step) == _whole_record(default)
    assert default.diverged_at.tolist() == [4, -1, -1]
    assert not default.kept_u[0, [0, 3, 4]].any() and default.kept_u[0, [1, 2]].any(axis=1).all()
    for i in range(3):
        solo = integ.run_path(inits[i], [i], keep_steps=keep)
        assert _whole_record(default.take([i])) == _whole_record(solo), i


def test_rows_dropped_across_noise_chunks_match_solo_runs(spaces4, monkeypatch):
    # the data of test_block_shrunk_by_divergence_matches_solo_runs, drawn
    # two steps a chunk: rows 2 and 0 blow up inside and at the end of one
    cfg = SolverConfig(n_modes=4, dt=0.05, horizon=0.5, nu=1e-3, eps=1e-2, seed=5)
    integ = GalerkinIntegrator(spaces4, cfg, noise=default_noise(spaces4, trace=0.05))
    monkeypatch.setattr(integrator, "CHUNK_BYTES", _chunk_bytes(integ, 5, 2))
    quiet = project_initial(spaces4, "smooth", "low_mode")
    inits = [
        project_initial(spaces4, [(1, 1, 1, 30.0), (2, 3, 2, -30.0)], None),
        quiet,
        project_initial(spaces4, [(1, 1, 1, 100.0), (2, 3, 2, -100.0)], None),
        quiet,
        project_initial(spaces4, None, None),
    ]
    rows = integ.run_path(inits, [0, 1, 2, 1, 4])
    assert rows.diverged_at.tolist() == [4, -1, 3, -1, -1]
    for i, path in ((1, 1), (3, 1), (4, 4)):
        solo = integ.run_path(inits[i], path_index=path)
        for name in SERIES:
            assert _bits(getattr(rows.take(i), name)) == _bits(getattr(solo, name)), (i, name)
