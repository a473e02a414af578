import mpmath as mp
import numpy as np
import pytest

from mapstop.errors import MapstopError, ValidationError
from mapstop.fluctuation import (generator_check, one_sided_up, two_sided_down,
                                 two_sided_up)
from mapstop.model import LevyComponent, MapModel, phi
from mapstop.scale import spectral_decompose

from conftest import random_model


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


# --- exit kernel at any barrier height --------------------------------


def _rank_one(R):
    """(h, g) with R = h g, split at the largest entry of the rank-one R."""
    i, j = np.unravel_index(np.abs(R).argmax(), R.shape)
    return R[:, j], R[i] / R[i, j]


def _exact_two_sided(rep, x, a):
    """W(x) W(a)^{-1} and Z(x) - W(x) W(a)^{-1} Z(a) from the residue sums in
    mpmath, each R_k built exactly as h_k g_k from the float roots and factors.

    The e^{zeta a} growth costs about a (2 zeta_1 - zeta_N) / 2.3 digits over
    the up-roots zeta_1 >= ... >= zeta_N, so that many plus 40 are carried.
    """
    up = rep.roots.real[rep.roots.real > 0]
    n = rep.n_states
    with mp.workdps(int(40 + a * (2 * up.max() - up.min()) / 2.3)):
        terms = []
        for z, R in zip(rep.roots, rep.residues):
            h, g = _rank_one(R)
            terms.append((mp.mpc(complex(z)), mp.matrix(
                [[mp.mpc(complex(h[i])) * mp.mpc(complex(g[j])) for j in range(n)]
                 for i in range(n)])))
        F = mp.matrix((rep.q * np.eye(n) - rep.q_matrix).tolist())

        def w(y):
            return sum((R * mp.exp(z * y) for z, R in terms), mp.zeros(n, n))

        def z_(y):
            tail = sum((R * ((mp.exp(z * y) - 1) / z) for z, R in terms), mp.zeros(n, n))
            return mp.eye(n) + tail * F

        ratio = w(x) * mp.inverse(w(a))
        down = z_(x) - ratio * z_(a)
        return tuple(np.array([[float(mp.re(M[i, j])) for j in range(n)] for i in range(n)])
                     for M in (ratio, down))


@pytest.mark.parametrize("name", ["ivanovs2", "wiener2", "random_3_4"])
@pytest.mark.parametrize("a", [1.0, 5.0, 10.0])
def test_two_sided_matches_exact_sums(name, a, request):
    """Both exits agree with an extended-precision evaluation of the same
    residue sums within 1e-14, at barriers where W(a) is ill-conditioned."""
    model = random_model(3, 4) if name == "random_3_4" else request.getfixturevalue(name)
    rep = spectral_decompose(model, 1.5)
    for x in (0.3, a / 2, a - 0.3):
        ref_up, ref_down = _exact_two_sided(rep, x, a)
        assert np.abs(two_sided_up(rep, x, a) - ref_up).max() < 1e-14
        assert np.abs(two_sided_down(rep, x, a) - ref_down).max() < 1e-14


@pytest.mark.parametrize("a", [2.0, 5.0, 10.0])
def test_two_sided_strong_markov_split_wiener(wiener2, a):
    """Continuous paths pass through 0 before reaching a from below, so
    id0(x -> a) = up(x, a) + down(x, a) id0(0 -> a)."""
    q = 1.5
    rep = spectral_decompose(wiener2, q)
    from_zero = one_sided_up(wiener2, q, 0.0, a)
    for x in (0.3, a / 2, a - 0.3):
        split = two_sided_up(rep, x, a) + two_sided_down(rep, x, a) @ from_zero
        assert np.abs(one_sided_up(wiener2, q, x, a) - split).max() < 1e-13


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("a", [2.0, 5.0])
def test_two_sided_rows_are_probabilities(seed, a):
    """Row sums of up, down and up + down lie in [0, 1] on 4-state models."""
    rep = spectral_decompose(random_model(seed, 4), 1.5)
    for x in (a / 2, a - 0.1):
        up, down = two_sided_up(rep, x, a), two_sided_down(rep, x, a)
        for rows in (up.sum(axis=1), down.sum(axis=1), (up + down).sum(axis=1)):
            assert (rows >= -1e-12).all() and (rows <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("name, a", [("ivanovs2", 1e-12), ("brownian", 1e-20)])
def test_two_sided_tiny_barrier_is_typed(name, a, request):
    """At a tiny barrier the exits are probabilities or a typed MapstopError,
    never a raw LinAlgError.  The residues of a one-state Brownian motion
    cancel exactly, so there W(1e-20) is the zero matrix."""
    if name == "brownian":
        model = MapModel(np.zeros((1, 1)), (LevyComponent(0.0, 1.0),))
    else:
        model = request.getfixturevalue(name)
    rep = spectral_decompose(model, 1.5)
    for x in (0.0, a / 2, a):
        try:
            up, down = two_sided_up(rep, x, a), two_sided_down(rep, x, a)
        except MapstopError:
            continue
        for rows in (up.sum(axis=1), down.sum(axis=1), (up + down).sum(axis=1)):
            assert (rows >= -1e-12).all() and (rows <= 1.0 + 1e-12).all()
