import numpy as np
import pytest

from mapstop.errors import ValidationError
from mapstop.fluctuation import (generator_check, one_sided_up, two_sided_down,
                                 two_sided_up)
from mapstop.model import phi
from mapstop.scale import spectral_decompose


def test_one_sided_up_basic(ivanovs2):
    q = 1.5
    P = one_sided_up(ivanovs2, q, 0.5, 1.0)
    assert P.shape == (2, 2)
    assert (P >= 0).all()
    assert (P.sum(axis=1) <= 1.0 + 1e-12).all()
    # starting at the barrier the passage is immediate
    I = one_sided_up(ivanovs2, q, 1.0, 1.0)
    assert np.abs(I - np.eye(2)).max() < 1e-10


def test_one_sided_up_semigroup(ivanovs2):
    """First passage through y then through a composes multiplicatively."""
    q = 1.5
    P1 = one_sided_up(ivanovs2, q, 0.2, 0.6)
    P2 = one_sided_up(ivanovs2, q, 0.6, 1.1)
    P = one_sided_up(ivanovs2, q, 0.2, 1.1)
    assert np.abs(P1 @ P2 - P).max() < 1e-10


def test_one_sided_matches_perron_scalar(ivanovs2):
    """Row sums against the Perron harmonic vector: e^{Phi x} v is
    invariant for the killed passage upward."""
    q = 1.5
    p = phi(ivanovs2, q)
    from mapstop.model import perron_vector
    v = perron_vector(ivanovs2, p)
    x, a = 0.3, 1.4
    lhs = one_sided_up(ivanovs2, q, x, a) @ v
    assert np.abs(lhs - np.exp(-p * (a - x)) * v).max() < 1e-9


def test_two_sided_up_monotone_and_bounded(ivanovs2):
    q = 1.5
    rep = spectral_decompose(ivanovs2, q)
    prev = None
    for x in (0.1, 0.4, 0.7, 0.95):
        M = two_sided_up(rep, x, 1.0)
        assert (M >= -1e-12).all()
        assert (M.sum(axis=1) <= 1.0 + 1e-12).all()
        if prev is not None:
            assert (M.sum(axis=1) >= prev.sum(axis=1) - 1e-12).all()
        prev = M
    at_barrier = two_sided_up(rep, 1.0, 1.0)
    assert np.abs(at_barrier - np.eye(2)).max() < 1e-9


def test_two_sided_dominated_by_one_sided(ivanovs2):
    """Killing at the lower barrier can only decrease the functional."""
    q = 1.5
    rep = spectral_decompose(ivanovs2, q)
    for x in (0.25, 0.5, 0.75):
        unkilled = one_sided_up(ivanovs2, q, x, 1.0)
        killed = two_sided_up(rep, x, 1.0)
        assert (killed <= unkilled + 1e-10).all()


def test_two_sided_split_at_lower_barrier(ivanovs2):
    """One-sided passage = two-sided passage + passage after ruin.

    E_x[e^{-q tau_a}] splits by whether the path dips below 0 first;
    paths that do restart from a negative level carried by the down
    matrix only through the overshoot, so here we just check the
    inequality structure and the q-derivative sign instead: the killed
    functional shrinks when q grows.
    """
    rep_lo = spectral_decompose(ivanovs2, 1.2)
    rep_hi = spectral_decompose(ivanovs2, 2.4)
    lo = two_sided_up(rep_lo, 0.5, 1.0)
    hi = two_sided_up(rep_hi, 0.5, 1.0)
    assert (hi <= lo + 1e-12).all()


def test_two_sided_down_bounds(ivanovs2):
    q = 1.5
    rep = spectral_decompose(ivanovs2, q)
    M = two_sided_down(rep, 0.5, 1.0)
    assert (M >= -1e-12).all()
    assert (M.sum(axis=1) <= 1.0 + 1e-12).all()
    # together the two exits cannot carry more than full mass
    up = two_sided_up(rep, 0.5, 1.0)
    assert ((up + M).sum(axis=1) <= 1.0 + 1e-10).all()


def test_two_sided_down_vanishes_at_barrier(ivanovs2):
    rep = spectral_decompose(ivanovs2, 1.5)
    M = two_sided_down(rep, 1.0, 1.0)
    assert np.abs(M).max() < 1e-9


def test_generator_identity(ivanovs2):
    q = 1.5
    rep = spectral_decompose(ivanovs2, q)
    for i in (0, 1):
        for x in (0.25, 0.5, 1.0):
            assert abs(generator_check(ivanovs2, rep, x, i)) < 1e-5 * (1 + q)
        assert abs(generator_check(ivanovs2, rep, -0.5, i) + q) < 1e-6 * (1 + q)


def test_generator_identity_wiener(wiener2):
    q = 1.8
    rep = spectral_decompose(wiener2, q)
    for i in (0, 1):
        assert abs(generator_check(wiener2, rep, 0.6, i)) < 1e-5 * (1 + q)


def test_generator_check_rejects_origin(ivanovs2):
    rep = spectral_decompose(ivanovs2, 1.5)
    with pytest.raises(ValidationError):
        generator_check(ivanovs2, rep, 0.0, 0)
