"""Spectral scale-matrix backend, checked against the contour oracle."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapstop.scale
from mapstop.errors import BlowUp, DegenerateRoots, EigenFailure, ValidationError
from mapstop.fluctuation import one_sided_up
from mapstop.invert import talbot_invert
from mapstop.jumps import JumpLaw
from mapstop.model import LevyComponent, MapModel, big_psi, phi
from mapstop.scale import (ScaleTable, a_threshold, eval_w, eval_w_one,
                           eval_z, eval_z_one,
                           spectral_decompose, w_zero_plus,
                           wiener_closed_form)
from mapstop.stopping import solve_shepp

from conftest import check_scale_csv, exchangeable_model, random_model


def test_root_count_and_phi_among_roots(ivanovs2, wiener2):
    for model in (ivanovs2, wiener2):
        q = 1.7
        rep = spectral_decompose(model, q)
        pos = rep.roots[rep.roots.real > 0]
        assert len(pos) == model.n_states
        p = phi(model, q)
        assert min(abs(rep.roots - p)) < 1e-9
        assert abs(rep.phi_q - p) < 1e-9
        # Phi is the smallest positive real root
        real_pos = sorted(z.real for z in pos if abs(z.imag) < 1e-10)
        assert abs(real_pos[0] - p) < 1e-9


def test_partial_fractions_reproduce_resolvent(ivanovs2):
    q = 2.1
    rep = spectral_decompose(ivanovs2, q)
    for beta in (rep.phi_q + 0.7, rep.phi_q + 3.0):
        pf = sum(rep.residues[k] / (beta - rep.roots[k])
                 for k in range(len(rep.roots)))
        direct = np.linalg.inv(big_psi(ivanovs2, beta) - q * np.eye(2))
        assert np.abs(pf.real - direct).max() < 1e-10


def _check_pencil_rep(model, q, rep):
    """Round trip against (Psi(beta) - q I)^{-1} at three beta beyond every
    root, N roots in the right half-plane, and sum_k R_k = W(0+)."""
    n = model.n_states
    assert (rep.roots.real > 0).sum() == n
    for beta in rep.roots.real.max() + np.array([0.5, 2.0, 8.0]):
        pf = sum(R / (beta - z) for z, R in zip(rep.roots, rep.residues))
        direct = np.linalg.inv(big_psi(model, beta) - q * np.eye(n))
        assert np.abs(pf - direct).max() < 1e-8 * (1.0 + np.abs(direct).max())
    W0 = w_zero_plus(model, q)
    assert np.abs(rep.residues.sum(axis=0) - W0).max() < 1e-10


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
       q=st.floats(0.2, 4.0))
def test_pencil_random_models(seed, n, q):
    model = random_model(seed, n)
    _check_pencil_rep(model, q, spectral_decompose(model, q))


_Q2 = np.array([[-1.0, 1.0], [2.0, -2.0]])
_EXP3 = JumpLaw.exponential(3.0)
_ERL3 = JumpLaw.erlang(2, 3.0)
_NO = JumpLaw.none()

REPEATED_RATE_MODELS = {
    # an Erlang mixture whose components share one rate
    "mixture": (MapModel(_Q2, (
        LevyComponent(1.0, 1.0, ((0.8, JumpLaw.mixture([(0.5, 2, 3.0),
                                                        (0.5, 1, 3.0)])),)),
        LevyComponent(2.0))), 5),
    # a jump part at the rate of a switch law
    "jump_and_switch": (MapModel(_Q2, (
        LevyComponent(1.0, 0.0, ((0.7, JumpLaw.exponential(2.5)),)),
        LevyComponent(1.5, 1.0)),
        ((_NO, JumpLaw.exponential(2.5)), (_NO, _NO))), 4),
    # two jump parts with one rate
    "two_parts": (MapModel(_Q2, (
        LevyComponent(1.0, 0.5, ((0.5, _EXP3), (0.8, _EXP3))),
        LevyComponent(2.0, 1.0))), 5),
    # jump and switch laws at one rate in both states
    "everywhere": (MapModel(_Q2, (
        LevyComponent(1.0, 1.0, ((0.6, _EXP3),)),
        LevyComponent(2.0, 0.0, ((0.9, _EXP3),))),
        ((_NO, _EXP3), (_EXP3, _NO))), 5),
    # Erlang parts of shapes 2 and 3 at one rate
    "mixture_2_3": (MapModel(_Q2, (
        LevyComponent(1.0, 1.0, ((0.8, JumpLaw.mixture([(0.5, 2, 3.0),
                                                        (0.5, 3, 3.0)])),)),
        LevyComponent(2.0))), 6),
    # an Erlang(2) jump part at the rate of an Erlang(2) switch law
    "erlang_jump_and_switch": (MapModel(_Q2, (
        LevyComponent(1.0, 0.0, ((0.7, _ERL3),)),
        LevyComponent(1.5, 1.0)),
        ((_NO, _ERL3), (_NO, _NO))), 5),
    # two Erlang(2) jump parts with one rate
    "two_erlang_parts": (MapModel(_Q2, (
        LevyComponent(1.0, 0.5, ((0.5, _ERL3), (0.8, _ERL3))),
        LevyComponent(2.0, 1.0))), 6),
    # nearly equal stage rates: a near-defective pair in the phases
    "near_equal_rates": (MapModel(_Q2, (
        LevyComponent(1.0, 1.0, ((0.5, _ERL3),
                                 (0.8, JumpLaw.erlang(2, 3.0 + 1e-9)))),
        LevyComponent(2.0))), 5),
    # semisimple repeated roots of det(Psi - q I), and a near-repeated pair
    "exchangeable": (exchangeable_model(0.0), 9),
    "exchangeable_1e-6": (exchangeable_model(1e-6), 9),
}


@pytest.mark.parametrize("name", sorted(REPEATED_RATE_MODELS))
def test_pencil_repeated_rates(name):
    """Parts leaving one state at one stage rate share a chain of phases,
    and modes that nearly equal rates leave in the phases alone are
    dropped, so only the zeros of det(Psi - q I) remain, a repeated zero
    once per eigenvector.  Every residue is a null matrix of Psi - q I at
    its root."""
    model, n_roots = REPEATED_RATE_MODELS[name]
    q = 1.3
    rep = spectral_decompose(model, q)
    assert len(rep.roots) == n_roots
    _check_pencil_rep(model, q, rep)
    for z, R in zip(rep.roots, rep.residues):
        A = big_psi(model, z) - q * np.eye(model.n_states)
        assert np.abs(A @ R).max() < 1e-10 * (1.0 + np.abs(A).max()) * np.abs(R).max()


@pytest.mark.parametrize("d", [0.0, 1e-6, 1e-5, 1e-4, 1e-2])
def test_exchangeable_model_is_levy(d):
    """Near and at the exchangeable MAP, whose repeated roots are
    semisimple: W matches the contour oracle, every c_j is the root of the
    one-state model (exact at d = 0, a Levy process in law), and the
    first-passage row sums are e^{-Phi(q)(a - x)}."""
    q = 1.5
    model = exchangeable_model(d)
    rep = spectral_decompose(model, q)
    for x in (0.5, 1.5):
        tb = talbot_invert(model, q, x)
        assert np.abs(eval_w(rep, x) - tb).max() < 1e-12 * np.abs(tb).max()
    levy = MapModel(np.zeros((1, 1)), model.components[:1])
    c1 = solve_shepp(levy, q).states[0].c
    assert all(abs(st.c - c1) < 1e-9 for st in solve_shepp(model, q).states)
    rows = one_sided_up(model, q, 0.3, 1.0).sum(axis=1)
    assert np.abs(rows - np.exp(-rep.phi_q * 0.7)).max() < 1e-12


def test_defective_basis_raises(ivanovs2, monkeypatch):
    """An eigenvector basis with two equal columns (a defective root) is a
    typed failure, not a residue read off a singular basis."""
    exact = mapstop.scale.eig

    def doubled(a, b):
        vals, right = exact(a, b)
        right[:, 1] = right[:, 0]
        return vals, right

    monkeypatch.setattr(mapstop.scale, "eig", doubled)
    with pytest.raises(DegenerateRoots):
        spectral_decompose(ivanovs2, 1.8)


def test_w_zero_check_raises(ivanovs2, monkeypatch):
    """A residue sum that misses W(0+) is a typed failure, not a result."""
    exact = mapstop.scale.w_zero_plus
    monkeypatch.setattr(mapstop.scale, "w_zero_plus",
                        lambda model, q: exact(model, q) + 1e-6)
    with pytest.raises(EigenFailure):
        spectral_decompose(ivanovs2, 1.8)


def test_backend_agreement_builtin(ivanovs2, wiener2):
    for model in (ivanovs2, wiener2):
        rep = spectral_decompose(model, 1.5)
        for x in (0.1, 0.5, 1.0, 2.0):
            sp = eval_w(rep, x)
            tb = talbot_invert(model, 1.5, x)
            assert np.abs(sp - tb).max() < 1e-5 * (1.0 + np.abs(tb).max())


def test_backend_agreement_random_models():
    for seed in (11, 12, 13):
        model = random_model(seed)
        rep = spectral_decompose(model, 1.3)
        for x in (0.3, 1.0):
            sp = eval_w(rep, x)
            tb = talbot_invert(model, 1.3, x)
            assert np.abs(sp - tb).max() < 1e-5 * (1.0 + np.abs(tb).max())


def test_wiener_closed_form_matches(wiener2):
    q = 1.5
    w_of = wiener_closed_form(wiener2, q)
    rep = spectral_decompose(wiener2, q)
    for x in (0.1, 0.5, 1.0, 2.0):
        assert np.abs(w_of(x) - eval_w(rep, x)).max() < 1e-8


def test_w_zero_plus_diagonal(ivanovs2, wiener2):
    # ubv states vanish at 0+, bv states start at 1/drift
    for q in (1.5, 1.8, 5.0):
        W0 = w_zero_plus(ivanovs2, q)
        assert np.abs(W0 - np.diag([0.0, 0.5])).max() < 1e-8
        W0w = w_zero_plus(wiener2, q)
        assert np.abs(W0w).max() < 1e-8


def test_z_prime_identity(ivanovs2):
    """Z' = W (q I - Q) on a grid."""
    q = 1.8
    rep = spectral_decompose(ivanovs2, q)
    M = q * np.eye(2) - ivanovs2.q_matrix
    for x in (0.2, 0.7, 1.6):
        lhs = eval_w(rep, x) @ M
        h = 1e-6
        num = (eval_z(rep, x + h) - eval_z(rep, x - h)) / (2 * h)
        assert np.abs(lhs - num).max() < 1e-6


def test_z_is_identity_at_origin(ivanovs2):
    rep = spectral_decompose(ivanovs2, 1.5)
    assert np.abs(eval_z(rep, 0.0) - np.eye(2)).max() < 1e-10
    assert np.abs(eval_z(rep, -0.5) - np.eye(2)).max() < 1e-12
    # the row sums keep the extensions W = 0, Z = I exactly left of 0
    assert np.array_equal(eval_w_one(rep, -0.3), np.zeros(2))
    assert np.array_equal(eval_z_one(rep, np.array([-0.3, 0.0])), np.ones((2, 2)))


def test_row_sums_positive_near_zero(ivanovs2, wiener2):
    for model in (ivanovs2, wiener2):
        rep = spectral_decompose(model, 1.5)
        grid = np.linspace(1e-4, 0.5, 60)
        wr = eval_w_one(rep, grid)
        assert (wr > 0).all()


def test_wiener_row_sum_boundedness(wiener2):
    """exp(-Phi x) [W 1] stays bounded as x grows (fast modes cancel
    in the row sums for this model)."""
    q = 1.5
    rep = spectral_decompose(wiener2, q)
    xs = np.array([5.0, 10.0, 20.0])
    scaled = eval_w_one(rep, xs) * np.exp(-rep.phi_q * xs)[:, None]
    assert np.isfinite(scaled).all()
    spread = np.abs(scaled[-1] - scaled[-2]).max()
    assert spread < 1e-3 * np.abs(scaled[-1]).max()


def test_a_threshold_landmarks(ivanovs2):
    for q, lo in ((1.5, 0.87), (1.8, 0.88), (5.0, 1.2)):
        rep = spectral_decompose(ivanovs2, q)
        a2 = a_threshold(rep, 1)
        assert lo < a2 < 2.0
        # state 1 keeps [Z 1] above 1 on the scan range
        assert a_threshold(rep, 0) == float("inf")
        assert abs(eval_z_one(rep, a2)[1] - 1.0) < 1e-6


def test_overflow_raises_blow_up(ivanovs2):
    """e^{zeta x} overflows long before x = 200: a typed error, not NaN or
    a threshold of infinity read off NaN comparisons."""
    rep = spectral_decompose(ivanovs2, 1.8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUp):
            eval_w_one(rep, 200.0)
        with pytest.raises(BlowUp):
            a_threshold(rep, 0, x_max=200.0)
    # masked evaluation left of the origin stays finite
    assert np.isfinite(eval_z(rep, np.array([-200.0, 0.5]))).all()


def test_scale_table_roundtrip(tmp_path, ivanovs2):
    """The 12-digit CSV form holds the table's arrays."""
    rep = spectral_decompose(ivanovs2, 1.8)
    table = ScaleTable.from_rep(rep, x_max=1.0, step=0.01)
    path = os.path.join(tmp_path, "t.csv")
    table.to_csv(path)
    check_scale_csv(path, table)


def test_decompose_rejects_nonpositive_q(ivanovs2):
    with pytest.raises(ValidationError):
        spectral_decompose(ivanovs2, 0.0)
