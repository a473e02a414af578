import copy

import numpy as np
import pytest

from mapstop.config import load_model
from mapstop.errors import ModelShapeMismatch, PoleHit
from mapstop.jumps import NONE_LAW, JumpLaw
from mapstop.model import (LevyComponent, MapModel, big_psi, kappa,
                           perron_vector, phi, stationary_law)

from conftest import random_model


def test_big_psi_rows_vanish_at_zero(ivanovs2, wiener2):
    """Psi(0) = Q, so its rows sum to zero."""
    for model in (ivanovs2, wiener2):
        A = big_psi(model, 0.0)
        assert np.abs(A - model.q_matrix).max() < 1e-12
        assert np.abs(A.sum(axis=1)).max() < 1e-12


def test_kappa_zero_and_convexity(ivanovs2, wiener2):
    for model in (ivanovs2, wiener2):
        assert abs(kappa(model, 0.0)) < 1e-12
        grid = np.linspace(0.0, 2.5, 26)
        vals = np.array([kappa(model, t) for t in grid])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert (second > -1e-9).all()


def test_kappa_convexity_random_models():
    for seed in (11, 12, 13):
        model = random_model(seed)
        grid = np.linspace(0.0, 2.0, 21)
        vals = np.array([kappa(model, t) for t in grid])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert (second > -1e-9).all()


def test_kappa_drift_ivanovs(ivanovs2):
    """kappa'(0) is the long-run drift; for this model it is 1/4."""
    h = 1e-6
    d = (kappa(ivanovs2, h) - kappa(ivanovs2, 0.0)) / h
    assert abs(d - 0.25) < 1e-4


def test_perron_vector_positive_and_eigen(ivanovs2):
    th = 1.3
    v = perron_vector(ivanovs2, th)
    assert (v > 0).all()
    lhs = big_psi(ivanovs2, th) @ v
    assert np.abs(lhs - kappa(ivanovs2, th) * v).max() < 1e-9


def test_phi_right_inverse(ivanovs2, wiener2):
    for model in (ivanovs2, wiener2):
        for q in (0.3, 1.0, 2.2, 6.0):
            p = phi(model, q)
            assert p > 0
            assert abs(kappa(model, p) - q) < 1e-9


def test_phi_is_smallest_positive_root(ivanovs2):
    """det(Psi(z) - q I) has no sign change strictly inside (0, Phi(q))."""
    q = 1.5
    p = phi(ivanovs2, q)

    def det(z):
        return np.linalg.det(big_psi(ivanovs2, z) - q * np.eye(2))

    zs = np.linspace(1e-6, p * 0.999, 200)
    signs = np.sign([det(z) for z in zs])
    assert (signs == signs[0]).all()
    assert abs(det(p)) < 1e-6 * max(1.0, abs(det(zs[0])))


def test_phi_stops_at_bisection_fixed_point(ivanovs2, wiener2, monkeypatch):
    """phi stops once the midpoint repeats an end, bit for bit the value
    of the full 200-step bisection, in well under 100 kappa calls."""
    import mapstop.model

    def reference(model, q):
        hi = 1.0
        while kappa(model, hi) <= q:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if kappa(model, mid) > q:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    calls = []

    def counting_kappa(model, theta):
        calls.append(theta)
        return kappa(model, theta)

    monkeypatch.setattr(mapstop.model, "kappa", counting_kappa)
    for model in (ivanovs2, wiener2):
        for q in (0.3, 1.8, 17.0):
            calls.clear()
            assert phi(model, q) == reference(model, q)  # reference: unpatched kappa
            assert len(calls) < 100


def test_stationary_law(ivanovs2):
    pi = stationary_law(ivanovs2)
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(pi @ ivanovs2.q_matrix).max() < 1e-12
    # Q = [[-3,3],[1,-1]] has stationary law (1/4, 3/4)
    assert np.abs(pi - np.array([0.25, 0.75])).max() < 1e-12


def test_pole_hit_raises(ivanovs2):
    with pytest.raises(PoleHit):
        big_psi(ivanovs2, -3.0)


_GOOD_Q = [-1.0, 1.0, 2.0, -2.0]
_BROKEN = {  # rule: (Q row-major, drift, sigma2), each breaking that rule
    "q_offdiag": ([-1.0, 1.0, -1.0, 1.0], [1.0, 1.0], [1.0, 0.5]),
    "q_rowsum": ([-1.0, 0.5, 2.0, -2.0], [1.0, 1.0], [1.0, 0.5]),
    "q_reducible": ([-1.0, 1.0, 0.0, 0.0], [1.0, 1.0], [1.0, 0.5]),
    "sigma2_negative": (_GOOD_Q, [1.0, 1.0], [-1.0, 0.5]),
    "monotone_path": (_GOOD_Q, [-1.0, 1.0], [0.0, 0.5]),
}


@pytest.mark.parametrize("rule", list(_BROKEN))
def test_invalid_model_is_never_built(rule):
    """Each standing assumption is enforced when the model is built, by the
    constructor and by load_model, with the broken rule named."""
    Q, drift, sigma2 = _BROKEN[rule]
    comps = tuple(LevyComponent(d, s) for d, s in zip(drift, sigma2))
    with pytest.raises(ModelShapeMismatch, match=rule):
        MapModel(np.reshape(Q, (2, 2)), comps)
    doc = {"states": 2, "Q": Q, "drift": drift, "sigma2": sigma2}
    with pytest.raises(ModelShapeMismatch, match=rule):
        load_model(doc)
    good = dict(doc, Q=_GOOD_Q, drift=[1.0, 1.0], sigma2=[1.0, 0.5])
    assert load_model(good).n_states == 2


_JUMP_DOC = {"states": 2, "Q": _GOOD_Q, "drift": [1.0, 1.0], "sigma2": [1.0, 0.5],
             "jumps": [{"state": 2, "rate": 1.0, "kind": "exponential",
                        "jump_rate": 2.0}]}
_MODEL_RULE = r"validation: finite: [^;]*$"  # the finite rule and no other


@pytest.mark.parametrize("key, value, rule", [
    ("drift", [float("nan"), 1.0], _MODEL_RULE),
    ("drift", [1.0, float("inf")], _MODEL_RULE),
    ("sigma2", [1.0, float("nan")], _MODEL_RULE),
    ("Q", [-1.0, 1.0, float("nan"), -2.0], _MODEL_RULE),
    ("rate", float("nan"), "compound-Poisson rate must be finite"),
    ("jump_rate", float("nan"), "need finite"),
], ids=["drift_nan", "drift_inf", "sigma2", "Q", "rate", "jump_rate"])
def test_non_finite_input_is_refused(key, value, rule):
    """NaN or infinite model input is refused when the model is built,
    under a rule that names finiteness, never by a later numerical failure."""
    doc = copy.deepcopy(_JUMP_DOC)
    if key in ("rate", "jump_rate"):
        doc["jumps"][0][key] = value
    else:
        doc[key] = value
    with pytest.raises(ModelShapeMismatch, match=rule):
        load_model(doc)


@pytest.mark.parametrize("build", [
    lambda: LevyComponent(1.0, 0.0, ((-1.0, JumpLaw.exponential(2.0)),)),
    lambda: LevyComponent(1.0, 0.0, ((1.0, NONE_LAW),)),
    lambda: JumpLaw.exponential(0.0),
    lambda: JumpLaw.mixture([(0.0, 1, 2.0)]),
    lambda: MapModel(np.zeros((2, 2)), (LevyComponent(1.0),)),
    lambda: JumpLaw(((1.0, float("nan"), 2.0),)),
    lambda: JumpLaw(((1.0, 2.5, 2.0),)),
], ids=["rate", "trivial_law", "jump_rate", "weight", "shape", "erlang_shape_nan",
        "erlang_shape_fraction"])
def test_constructor_errors_are_typed(build):
    with pytest.raises(ModelShapeMismatch):
        build()


def test_switch_laws_masked_by_rate_matrix():
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]])
    law = JumpLaw.exponential(2.0)
    rows = tuple(tuple(law for _ in range(3)) for _ in range(3))
    comps = tuple(LevyComponent(1.0, 1.0) for _ in range(3))
    model = MapModel(q_matrix=Q, components=comps, switch_jumps=rows)
    assert model.switch_jumps[0][2].is_none  # q_{13} = 0
    assert model.switch_jumps[1][1].is_none  # diagonal
    assert not model.switch_jumps[0][1].is_none
