"""The contour oracle: its resolvent inversion, its typed errors and its
precision beyond x = 2."""

import math

import mpmath as mp
import numpy as np
import pytest

from mapstop.errors import InversionUnstable, ValidationError
from mapstop.invert import _mp_inverse, talbot_invert
from mapstop.scale import eval_w, spectral_decompose, wiener_closed_form


def _mpc_matrix(rng, n):
    return [[mp.mpc(*rng.normal(size=2)) for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("zero_lead", [False, True])
def test_mp_inverse_matches_mpmath(n, zero_lead):
    """Gauss-Jordan on lists agrees with mp.inverse at 30 digits, also
    when the leading entry is zero and a row swap is needed."""
    rng = np.random.default_rng(100 * n + zero_lead)
    with mp.workdps(30):
        a = _mpc_matrix(rng, n)
        if zero_lead and n > 1:
            a[0][0] = mp.mpc(0)
        ref = mp.inverse(mp.matrix(a))
        got = _mp_inverse([row[:] for row in a])
        size = max(abs(ref[i, j]) for i in range(n) for j in range(n))
        err = max(abs(got[i][j] - ref[i, j]) for i in range(n) for j in range(n))
    assert err <= 1e-28 * size


@pytest.mark.parametrize("a", [
    [[1, 2], [2, 4]],
    [[1, 0, 2], [3, 0, 1j], [2, 0, 5]],
    [[0, 0], [0, 0]],
])
def test_mp_inverse_singular_raises(a):
    with mp.workdps(30):
        with pytest.raises(InversionUnstable):
            _mp_inverse([[mp.mpc(v) for v in row] for row in a])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bad_x_is_validation_error(ivanovs2, x):
    with pytest.raises(ValidationError):
        talbot_invert(ivanovs2, 1.5, x)


@pytest.mark.parametrize("x", [1e-40, 1e-100])
def test_singular_resolvent_is_inversion_unstable(ivanovs2, x):
    """At tiny x the contour nodes sit so far out that Psi(s) - qI is
    singular to working precision."""
    with pytest.raises(InversionUnstable):
        talbot_invert(ivanovs2, 1.5, x)


@pytest.mark.parametrize("x", [6.0, 10.0])
def test_precision_grows_with_x(ivanovs2, wiener2, x):
    """Beyond x = 2 the working precision grows with the node count, so
    the oracle keeps agreeing with the closed form and the spectral W."""
    q = 1.5
    w = talbot_invert(wiener2, q, x)
    assert np.abs(wiener_closed_form(wiener2, q)(x) - w).max() <= 1e-10 * (1 + np.abs(w).max())
    w = talbot_invert(ivanovs2, q, x)
    sp = eval_w(spectral_decompose(ivanovs2, q), x)
    assert np.abs(sp - w).max() <= 1e-10 * (1 + np.abs(w).max())
