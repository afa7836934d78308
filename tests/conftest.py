from functools import partial

import numpy as np
import pytest

from acflow import build_spaces
from acflow.operators import bhat_operator
from acflow.spaces import _cos_sin_integrals, _stiffness_diagonal


@pytest.fixture(scope="session")
def spaces2():
    return build_spaces(2)


@pytest.fixture(scope="session")
def spaces3():
    return build_spaces(3)


@pytest.fixture(scope="session")
def spaces4():
    return build_spaces(4)


@pytest.fixture(scope="session")
def spaces8():
    return build_spaces(8)


def _dense_gram(spaces):
    # <psi_cs(j,k), psi_sc(j',k')> = 4 C[j,j'] C[k',k]: the (cs, sc) block is
    # kron(2C, 2C^T), the (sc, cs) block its transpose
    n2 = spaces.n_modes**2
    c = 2.0 * _cos_sin_integrals(spaces.n_modes)
    cross = np.kron(c, c.T)
    gram = np.eye(spaces.n_pressure)
    gram[:n2, n2:] = cross
    gram[n2:, :n2] = cross.T
    return gram


def _dense_grad_div(spaces):
    d = spaces.div_diagonal
    return d[:, None] * _dense_gram(spaces) * d[None, :]


@pytest.fixture(scope="session")
def dense_gram():
    """Function of the spaces giving the pressure Gram as a dense matrix,
    which the program itself never forms."""
    return _dense_gram


@pytest.fixture(scope="session")
def dense_grad_div():
    """Function of the spaces giving the dense grad-div coupling D G D."""
    return _dense_grad_div


def _stokes_apply(u, nu):
    """Viscous Stokes pairing; diagonal on the sine basis."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    return nu * _stiffness_diagonal(u.n_modes) * u.coeffs


@pytest.fixture(scope="session")
def stokes_apply():
    """Function of a field and a viscosity giving its Stokes pairings, an
    array the program itself never forms."""
    return _stokes_apply


def _polarised_pairing(spaces, u, v, w):
    """<B(u + v) - B(u) - B(v), w> = b(u, v, w) + b(v, u, w): the step's
    convection operator, a quadratic map, reaches the form for two fields
    by polarisation."""
    bhat = partial(bhat_operator, spaces)
    return float((bhat(u.coeffs + v.coeffs) - bhat(u) - bhat(v)) @ w.coeffs)


@pytest.fixture(scope="session")
def polarised_pairing():
    """Function of the spaces and fields u, v, w giving b(u, v, w) +
    b(v, u, w) through ``bhat_operator``."""
    return _polarised_pairing


@pytest.fixture()
def rng():
    return np.random.default_rng(20240517)
