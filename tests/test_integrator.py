import ctypes
import gc
import glob
import hashlib
import os
import struct
import weakref

import numpy as np
import pytest
from scipy.linalg import expm

from acflow import build_spaces
from acflow import integrator
from acflow.forcing import default_noise, noise_contribution, sample_increment
from acflow.integrator import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    DivergedPathError,
    GalerkinIntegrator,
    SolverConfig,
    State,
    project_initial,
    read_snapshot,
    write_snapshot,
)
from acflow.operators import bhat_operator
from acflow.spaces import ConfigurationError, scalar_pow
from dataclasses import replace


def test_config_validation_messages():
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        SolverConfig(dt=0.0)
    with pytest.raises(ConfigurationError, match="nu must be positive"):
        SolverConfig(nu=-1.0)
    with pytest.raises(ConfigurationError, match="eps must be positive"):
        SolverConfig(eps=0.0)
    with pytest.raises(ConfigurationError, match="dt must not exceed"):
        SolverConfig(dt=1.0, horizon=0.5)
    with pytest.raises(ConfigurationError, match="moment_p"):
        SolverConfig(moment_p=1.0)


def test_zero_data_stays_zero(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.01)
    integ = GalerkinIntegrator(spaces4, cfg)
    rec = integ.run_path(project_initial(spaces4, None, None))
    assert np.all(rec.energy == 0.0)
    assert np.all(rec.residual == 0.0)
    assert np.all(rec.u == 0.0)
    assert np.all(rec.p == 0.0)


def _linear_flow_matrix(spaces, cfg, G):
    n = spaces.n_velocity
    S = np.diag(spaces.stiffness)
    D = np.diag(spaces.div_diagonal)
    return np.block(
        [
            [-cfg.nu * S, D.T @ G],
            [-D / cfg.eps, np.zeros((n, n))],
        ]
    )


def test_linear_decay_matches_matrix_exponential_first_order(dense_gram):
    # coupled single-mode system at cutoff 1: the 2x2 velocity/pressure pair
    sp = build_spaces(1)
    errors = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = SolverConfig(n_modes=1, dt=dt, horizon=0.25, nu=0.1, eps=0.1)
        integ = GalerkinIntegrator(sp, cfg, include_convection=False)
        state = project_initial(sp, [(1, 1, 1, 1.0)], None)
        rec = integ.run_path(state)
        A = _linear_flow_matrix(sp, cfg, dense_gram(sp))
        z0 = np.concatenate([state.u, state.p])
        zT = expm(A * cfg.horizon) @ z0
        errors[dt] = abs(rec.l2_u[-1] - np.linalg.norm(zT[: sp.n_velocity]))
    assert 1.6 <= errors[2e-3] / errors[1e-3] <= 2.4
    assert 1.6 <= errors[1e-3] / errors[5e-4] <= 2.4


def test_linear_flow_matches_full_system_exponential(spaces3, dense_gram):
    cfg = SolverConfig(n_modes=3, dt=2e-4, horizon=0.02, nu=0.2, eps=0.05)
    integ = GalerkinIntegrator(spaces3, cfg, include_convection=False)
    state = project_initial(
        spaces3, [(1, 1, 1, 0.7), (2, 2, 2, -0.4)], [("cs", 1, 1, 0.3)]
    )
    rec = integ.run_path(state)
    A = _linear_flow_matrix(spaces3, cfg, dense_gram(spaces3))
    z0 = np.concatenate([state.u, state.p])
    zT = expm(A * cfg.horizon) @ z0
    exact = np.linalg.norm(zT[: spaces3.n_velocity])
    assert rec.l2_u[-1] == pytest.approx(exact, abs=50 * cfg.dt * exact)


def test_unconditional_linear_stability(spaces8):
    cfg = SolverConfig(n_modes=8, dt=10.0, horizon=50.0, eps=0.01)
    integ = GalerkinIntegrator(spaces8, cfg, include_convection=False)
    rec = integ.run_path(project_initial(spaces8, "smooth", "low_mode"))
    assert np.all(np.diff(rec.energy) <= 1e-14)


def test_energy_non_increasing_up_to_ledger_residual(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.05)
    integ = GalerkinIntegrator(spaces4, cfg)
    rec = integ.run_path(project_initial(spaces4, "smooth", None))
    deltas = np.diff(rec.energy)
    assert np.all(deltas <= np.abs(rec.residual[1:]) + 1e-15)


def test_convection_null_pairing_tracked(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02)
    integ = GalerkinIntegrator(spaces4, cfg)
    rec = integ.run_path(project_initial(spaces4, "smooth", None))
    assert len(rec.convection_pairing) == cfg.n_steps
    assert np.all(
        np.abs(rec.convection_pairing) <= 1e-12 * np.maximum(rec.energy[1:], 1.0)
    )


def test_ledger_residual_recomputable_from_entry(spaces4):
    # the record keeps the step terms the series cannot give; the change,
    # dissipation and Ito term follow from the series, bit for bit
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=8)
    noise = default_noise(spaces4, n_terms=4)
    force = spaces4.velocity_from_modes([(1, 1, 1, 0.4), (2, 1, 2, 0.2)])
    integ = GalerkinIntegrator(spaces4, cfg, force=force, noise=noise)
    rec = integ.run_path(project_initial(spaces4, "smooth", None), range(5))
    assert rec.residual.shape == (5, cfg.n_steps + 1)
    assert all(getattr(rec, name).shape == (5, cfg.n_steps) for name in rec.STEP_TERMS)
    assert rec.work_increment.all() and rec.martingale_increment.all()
    assert not rec.residual[:, 0].any()
    recomputed = (
        np.diff(rec.energy)
        + 2.0 * cfg.nu * scalar_pow(rec.h1_u[:, 1:], 2) * cfg.dt
        - rec.work_increment
        - noise.trace * cfg.dt
        - rec.martingale_increment
    )
    assert np.array_equal(rec.residual[:, 1:], recomputed)


def test_pressure_work_identity(spaces4, dense_gram):
    # the gradient pairing against the midpoint pressure equals the discrete
    # pressure-energy rate exactly; against the endpoint it differs by O(dt)
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.01, eps=0.05)
    integ = GalerkinIntegrator(spaces4, cfg)
    state = project_initial(spaces4, "smooth", [("cs", 1, 1, 0.4)])
    sp = spaces4
    G = dense_gram(sp)
    # the states of path 0 at every step, as run_path keeps them
    rec = integ.run_path(state, 0, keep_steps=range(cfg.n_steps + 1))
    states = list(zip(rec.kept_u, rec.kept_p))
    for (_, p_old), (u_new, p_new) in zip(states, states[1:]):
        grad_mid = -sp.div_diagonal * (G @ (0.5 * (p_old + p_new)))
        pairing_mid = float(np.dot(grad_mid, u_new))
        rate = (
            0.5
            * cfg.eps
            * (float(p_new @ (G @ p_new)) - float(p_old @ (G @ p_old)))
            / cfg.dt
        )
        assert pairing_mid == pytest.approx(rate, rel=1e-10, abs=1e-13)

        grad_end = -sp.div_diagonal * (G @ p_new)
        pairing_end = float(np.dot(grad_end, u_new))
        div_u = sp.div_diagonal * u_new
        gap = (cfg.dt / (2.0 * cfg.eps)) * float(div_u @ (G @ div_u))
        assert pairing_end - rate == pytest.approx(gap, rel=1e-9, abs=1e-12)


def test_run_path_single_step_record(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=1e-3)
    integ = GalerkinIntegrator(spaces4, cfg)
    rec = integ.run_path(project_initial(spaces4, "low_mode", None))
    assert len(rec.times) == 2
    assert rec.times[0] == 0.0 and rec.times[1] == pytest.approx(1e-3)


def test_run_path_refuses_rows_that_start_at_different_times(spaces4):
    # the rows share one time grid, so they must share its start
    integ = GalerkinIntegrator(spaces4, SolverConfig(n_modes=4, dt=1e-3, horizon=5e-3))
    start = project_initial(spaces4, "smooth", None)
    later = replace(start, t=0.25)
    with pytest.raises(ValueError, match=r"got t = \[0\.0, 0\.25\]"):
        integ.run_path([start, later], [0, 1])
    rows = integ.run_path([start, replace(start, u=start.u.copy())], [0, 1])
    assert rows.times[0] == 0.0


def test_force_and_start_states_must_hold_2n2_coefficients(spaces2):
    # refused by name before any step, not by numpy's broadcast at the first
    cfg = SolverConfig(n_modes=2, dt=1e-3, horizon=5e-3)
    with pytest.raises(ConfigurationError, match=r"force must hold 2N\^2 = 8 coefficients"):
        GalerkinIntegrator(spaces2, cfg, force=np.ones(3))
    integ = GalerkinIntegrator(spaces2, cfg)
    start = project_initial(spaces2, "low_mode", None)
    for name, bad in (("u", replace(start, u=np.ones(1))), ("p", replace(start, p=np.ones((1, 8))))):
        with pytest.raises(ConfigurationError, match=rf"initial {name} must hold 2N\^2 = 8 coefficients"):
            integ.run_path([start, bad], [0, 1])


def test_run_path_reproducible(spaces4):
    cfg = SolverConfig(n_modes=4, dt=1e-3, horizon=0.02, seed=31415)
    noise = default_noise(spaces4, n_terms=4)
    r1 = GalerkinIntegrator(spaces4, cfg, noise=noise).run_path(
        project_initial(spaces4, "smooth", None), path_index=2
    )
    r2 = GalerkinIntegrator(spaces4, cfg, noise=noise).run_path(
        project_initial(spaces4, "smooth", None), path_index=2
    )
    assert np.array_equal(r1.energy, r2.energy)
    assert np.array_equal(r1.u, r2.u)
    assert np.array_equal(r1.residual, r2.residual)


def test_blowup_raises_structured_error(spaces2):
    cfg = SolverConfig(n_modes=2, dt=0.9, horizon=45.0, nu=1e-3, eps=1e-3)
    integ = GalerkinIntegrator(spaces2, cfg)
    huge = project_initial(spaces2, [(1, 1, 1, 3e5), (2, 2, 2, -2e5)], None)
    with pytest.raises(DivergedPathError) as exc:
        integ.run_path(huge)
    assert exc.value.step >= 1


def test_project_initial_examples(spaces4):
    st = project_initial(spaces4, None, None)
    assert np.all(st.u == 0.0) and np.all(st.p == 0.0) and st.t == 0.0

    in_span = [(1, 2, 1, 0.5), (3, 3, 2, -1.25)]
    st = project_initial(spaces4, in_span, None)
    assert st.u[spaces4.velocity_index(1, 2, 1)] == 0.5
    assert st.u[spaces4.velocity_index(3, 3, 2)] == -1.25

    out_of_span = in_span + [(7, 1, 1, 2.0)]
    st2 = project_initial(spaces4, out_of_span, None)
    full_norm = np.sqrt(0.5**2 + 1.25**2 + 2.0**2)
    from acflow import l2_norm

    assert l2_norm(st2.u) <= full_norm
    assert np.array_equal(st2.u, st.u)


def test_project_initial_rejects_unknown_preset(spaces4):
    with pytest.raises(ConfigurationError):
        project_initial(spaces4, "vortex-soup", None)


def test_snapshot_roundtrip(tmp_path, spaces4, rng):
    u = rng.standard_normal(spaces4.n_velocity)
    p = rng.standard_normal(spaces4.n_pressure)
    state = State(u=u, p=p, t=0.375)
    path = tmp_path / "state.bin"
    sha = write_snapshot(path, state, "ab" * 32)
    assert sha == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded, digest = read_snapshot(path)
    assert digest == "ab" * 32
    assert loaded.t == state.t
    assert np.array_equal(loaded.u, u)
    assert np.array_equal(loaded.p, p)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        read_snapshot(path)


def test_snapshot_rejects_short_fields_and_trailing_bytes(tmp_path, spaces4):
    state = project_initial(spaces4, "smooth", "low_mode")
    path = tmp_path / "state.bin"
    write_snapshot(path, state, "cd" * 32)
    data = path.read_bytes()
    nv, n_p = spaces4.n_velocity, spaces4.n_pressure
    fields = [("magic", 4), ("version", 4), ("digest", 64), ("counts", 12), ("time", 8),
              ("velocity", 8 * nv), ("pressure", 8 * n_p)]
    start = 0
    for field, size in fields:
        # a cut at the field's start, and one inside it
        for cut in (start, start + 3):
            path.write_bytes(data[:cut])
            with pytest.raises(ConfigurationError, match=f"truncated snapshot: {field}"):
                read_snapshot(path)
        start += size
    assert start == len(data)
    path.write_bytes(data + b"\x00")
    with pytest.raises(ConfigurationError, match="1 trailing bytes"):
        read_snapshot(path)
    path.write_bytes(data)
    assert read_snapshot(path)[1] == "cd" * 32


@pytest.mark.parametrize(
    "counts, field",
    [
        ((0, 0, 0), "cutoff"),
        ((65, 2 * 65**2, 2 * 65**2), "cutoff"),
        ((2, 9, 8), "velocity"),
        ((2, 8, 2), "pressure"),
    ],
)
def test_snapshot_header_needs_a_cutoff_and_its_counts(tmp_path, counts, field):
    # the header is checked before the arrays: a cutoff in [1, 64] and
    # 2 N^2 coefficients for each field, whatever the bytes that follow
    n, nv, n_p = counts
    header = SNAPSHOT_MAGIC + struct.pack("<I", SNAPSHOT_VERSION) + b"0" * 64
    path = tmp_path / "state.bin"
    path.write_bytes(header + struct.pack("<IIId", n, nv, n_p, 0.0) + bytes(8 * (nv + n_p)))
    with pytest.raises(ConfigurationError, match=f"snapshot {field}"):
        read_snapshot(path)


SHIPPED_EPS = (1e-1, 1e-2, 1e-3, 1e-4)


def _openblas_or_skip():
    lib = integrator._numpy_openblas()
    if lib is None:
        pytest.skip("numpy does not bundle its own OpenBLAS here")
    return lib


def test_integrator_frees_its_inverse_with_it(spaces4):
    # each integrator builds its own inverse, and nothing else holds it
    integ = GalerkinIntegrator(spaces4, SolverConfig(n_modes=4, dt=1e-3, horizon=0.01))
    inverse = weakref.ref(integ._inverse_blocks)
    del integ
    gc.collect()
    assert inverse() is None


def test_implicit_factor_restores_the_blas_thread_count(spaces4):
    # the implicit inverse is built at one thread of numpy's OpenBLAS; the
    # caller's count comes back afterwards
    lib = _openblas_or_skip()
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        integrator._implicit_inverse(spaces4, 0.37, 0.01, 1e-3)
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _dense_implicit_matrix(sp, nu, eps, dt, dense_grad_div):
    """I + dt nu A + (dt^2/eps) K with K formed from the dense Gram."""
    dense = np.zeros((sp.n_velocity,) * 2, order="F")
    np.fill_diagonal(dense, 1.0 + dt * nu * sp.stiffness)
    dense += (dt * dt / eps) * dense_grad_div(sp)
    return dense


def _parity_class_of_each_index(n_modes):
    _, scatter = integrator._parity_classes(n_modes)
    return scatter // ((n_modes**2 + 1) // 2)


def _class_block(dense, n_modes, c):
    """The dense matrix restricted to parity class c, in class order, with a
    padding slot as an isolated unit."""
    gather, _ = integrator._parity_classes(n_modes)
    real = gather[c, : np.sum(_parity_class_of_each_index(n_modes) == c), 0]
    block = np.eye(gather.shape[1], order="F")
    block[: len(real), : len(real)] = dense[np.ix_(real, real)]
    return block


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5, 8, 9, 13])
def test_implicit_matrix_vanishes_outside_the_parity_classes(n_modes, dense_grad_div):
    # the classes partition the velocity indices (padding slots aside), and
    # M couples no two indices of different classes: its entries there are
    # exactly 0
    sp = build_spaces(n_modes)
    gather, scatter = integrator._parity_classes(n_modes)
    assert gather.shape == (4, (n_modes**2 + 1) // 2, 1)
    assert np.array_equal(gather.ravel()[scatter], np.arange(sp.n_velocity))
    cls = _parity_class_of_each_index(n_modes)
    # (N^2 + 1) / 2 modes each at odd N for the classes of (j, k) parities
    # (odd, odd) and (even, even), one fewer for the other two
    b, odd = gather.shape[1], n_modes % 2
    assert np.bincount(cls, minlength=4).tolist() == [b, b - odd, b - odd, b]
    m = _dense_implicit_matrix(sp, 0.1, 1e-4, 1e-3, dense_grad_div)
    assert not m[cls[:, None] != cls[None, :]].any()


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5, 8, 9, 13])
def test_implicit_matrix_matches_the_dense_assembly(n_modes, dense_grad_div):
    # each parity block, built from slices of the Gram's Kronecker factors,
    # has the bits (signed zeros included) of the dense I + dt nu A +
    # (dt^2/eps) K restricted to its class
    sp = build_spaces(n_modes)
    dt, nu = 1e-3, 0.1
    for eps in SHIPPED_EPS:
        dense = _dense_implicit_matrix(sp, nu, eps, dt, dense_grad_div)
        blocks = list(integrator._implicit_blocks(sp, nu, eps, dt))
        assert len(blocks) == 4
        for c, m in enumerate(blocks):
            assert m.flags.f_contiguous
            assert m.tobytes(order="F") == _class_block(dense, n_modes, c).tobytes(order="F"), (eps, c)


def _scipy_openblas():
    """The OpenBLAS that scipy.linalg runs on when scipy's wheel bundles its
    own (``scipy.libs``), with its C thread-count calls typed."""
    import scipy.linalg  # noqa: F401 (loads the library)

    libs = os.path.join(os.path.dirname(scipy.linalg.__file__), os.pardir, os.pardir, "scipy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))
    if not paths:
        pytest.skip("scipy does not bundle its own OpenBLAS here")
    lib = ctypes.CDLL(paths[0])
    lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
    return lib


@pytest.mark.parametrize("threads", [1, 2])
def test_lapack_inverse_matches_scipy_cho_solve_bit_for_bit(threads):
    # dpotrf/dpotrs through ctypes are the routines scipy.linalg's
    # cho_factor/cho_solve call, and numpy's OpenBLAS is the same release as
    # scipy's, so at one thread of each every parity block's inverse has the
    # same bits; the caller's thread count does not move them
    from scipy.linalg import cho_factor, cho_solve

    lib, scipy_lib = _openblas_or_skip(), _scipy_openblas()
    before = lib.scipy_openblas_get_num_threads64_()
    scipy_before = scipy_lib.scipy_openblas_get_num_threads()
    scipy_lib.scipy_openblas_set_num_threads(1)
    lib.scipy_openblas_set_num_threads64_(threads)
    try:
        for n_modes in (4, 5, 8, 12, 16):
            sp = build_spaces(n_modes)
            for eps in SHIPPED_EPS:
                for c, m in enumerate(integrator._implicit_blocks(sp, 0.1, eps, 1e-3)):
                    expected = cho_solve(cho_factor(m), np.eye(len(m)))
                    got = integrator.cho_solve(m.copy(order="F"))
                    assert lib.scipy_openblas_get_num_threads64_() == threads
                    assert got.tobytes() == expected.tobytes(), (n_modes, eps, c)
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
        scipy_lib.scipy_openblas_set_num_threads(scipy_before)


def _without_numpy_openblas(monkeypatch):
    # as with a numpy that links another BLAS: numpy.linalg builds the inverse
    monkeypatch.setattr(integrator, "_numpy_openblas", lambda: None)


@pytest.mark.parametrize("library", ["lapack", "fallback"])
def test_indefinite_implicit_matrix_is_a_configuration_error(spaces4, library, monkeypatch):
    # a negative viscosity makes diagonal entries of M negative
    if library == "fallback":
        _without_numpy_openblas(monkeypatch)
    with pytest.raises(ConfigurationError, match="not positive definite"):
        integrator._implicit_inverse(spaces4, -50.0, 0.1, 1e-3)


@pytest.mark.parametrize("n_modes", [1, 3, 5, 8, 9, 12, 13])
@pytest.mark.parametrize("eps", SHIPPED_EPS)
def test_implicit_inverse_solves_the_implicit_system(n_modes, eps, dense_grad_div, monkeypatch):
    # the shipped eps values; cond(M) stays below 25 here, so the products
    # with the precomputed inverses of the parity blocks, gathered into
    # class order and scattered back as a step does it, solve M x = r to
    # round-off, whichever library built them, padded classes included
    sp = build_spaces(n_modes)
    dt, nu = 1e-3, 0.1
    m = np.eye(sp.n_velocity) + dt * nu * np.diag(sp.stiffness) + (dt * dt / eps) * dense_grad_div(sp)
    r = np.random.default_rng(n_modes).standard_normal((6, sp.n_velocity))
    gather, scatter = integrator._parity_classes(n_modes)
    for library in ("lapack", "fallback"):
        with monkeypatch.context() as patch:
            if library == "fallback":
                _without_numpy_openblas(patch)
            inverse = integrator._implicit_inverse(sp, nu, eps, dt)
        assert inverse.shape == (4,) + gather.shape[1:2] * 2 and inverse.flags.c_contiguous
        x = np.matmul(inverse, np.take(r, gather, axis=-1)).reshape(len(r), -1)[:, scatter]
        assert np.abs(x @ m.T - r).max() <= 1e-13 * np.abs(r).max(), library


def _check_discrete_energy_identity(n_modes, horizon):
    """Run a noisy forced path at cutoff n_modes and check that it stays
    finite and that each step's ledger residual equals the scheme's exact
    energy identity
      -|du|^2 - eps |dp|_G^2 - 2 dt (B(u_m), u_m+1) + 2 (xi, du) - Tr dt
    up to round-off; returns the integrator."""
    sp = build_spaces(n_modes)
    cfg = SolverConfig(n_modes=n_modes, dt=1e-3, horizon=horizon, eps=1e-2, seed=3)
    noise = default_noise(sp, trace=0.05)
    force = sp.velocity_from_modes([(1, 1, 1, 0.4), (2, 1, 2, 0.2)])
    integ = GalerkinIntegrator(sp, cfg, force=force, noise=noise)
    rec = integ.run_path(project_initial(sp, "smooth", "low_mode"), 0, keep_steps=range(cfg.n_steps + 1))
    states = list(zip(rec.kept_u, rec.kept_p))
    assert all(np.isfinite(getattr(rec, name)).all() for name in rec.SERIES)
    for m, ((u0, p0), (u1, p1)) in enumerate(zip(states, states[1:])):
        bhat = bhat_operator(sp, u0[None])[0]
        xi = noise_contribution(noise, sample_increment(noise, cfg.dt, (cfg.seed, 0, m)))
        du, dp = u1 - u0, p1 - p0
        identity = (
            -(du @ du) - cfg.eps * (dp @ sp.gram_product(dp)) - 2 * cfg.dt * (bhat @ u1)
            + 2 * (xi @ du) - noise.trace * cfg.dt
        )
        assert abs(rec.residual[m + 1] - identity) <= 1e-13 * rec.energy.max()
    return integ


def test_cutoff_16_path_closes_its_discrete_energy_identity():
    # past the old N=13 ceiling
    _check_discrete_energy_identity(16, 0.02)


def test_cutoff_32_path_holds_quarter_size_blocks_and_closes_its_energy_identity():
    # the top of the cutoff study's range: the implicit inverse is four
    # (N^2/2)^2 blocks, 8 MiB where the dense (2N^2)^2 inverse took 32
    integ = _check_discrete_energy_identity(32, 0.003)
    assert integ._inverse_blocks.shape == (4, 512, 512)
    assert integ._inverse_blocks.nbytes == 8 << 20
