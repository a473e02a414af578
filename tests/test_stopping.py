"""Drawdown stopping: constant boundaries, value formula, boundary ODE."""

import math

import numpy as np
import pytest

from mapstop.errors import BoundaryMissing, Unbounded, ValidationError
from mapstop.stopping import (GainSpec, INTERIOR_ROOT, NO_ROOT_ON_RANGE,
                              ZERO_BOUNDARY, solve_boundary_ode, solve_shepp,
                              u_fn)


def test_boundaries_q18(ivanovs2):
    sol = solve_shepp(ivanovs2, 1.8)
    assert sol.states[0].regime == INTERIOR_ROOT
    assert sol.states[1].regime == INTERIOR_ROOT
    assert abs(sol.states[0].c - 0.2259871) < 1e-5
    assert abs(sol.states[1].c - 0.1471217) < 1e-5


def test_boundaries_q15(ivanovs2):
    sol = solve_shepp(ivanovs2, 1.5)
    assert abs(sol.states[0].c - 0.2603498) < 1e-5
    assert sol.states[1].regime == NO_ROOT_ON_RANGE
    assert math.isnan(sol.states[1].c)
    assert abs(sol.states[1].a - 1.186146) < 1e-4


def test_boundaries_q5(ivanovs2):
    sol = solve_shepp(ivanovs2, 5.0)
    assert abs(sol.states[0].c - 0.0930807) < 1e-5
    assert sol.states[1].regime == ZERO_BOUNDARY
    assert sol.states[1].c == 0.0


def test_boundary_monotone_in_q(ivanovs2):
    cs = [solve_shepp(ivanovs2, q).states[0].c for q in (1.5, 1.8, 5.0)]
    assert cs[0] > cs[1] > cs[2]


def test_unbounded_below_kappa1(ivanovs2):
    with pytest.raises(Unbounded):
        solve_shepp(ivanovs2, 1.0)
    with pytest.raises(Unbounded):
        solve_shepp(ivanovs2, 1.0434)


def test_u_vanishes_at_interior_root(ivanovs2):
    sol = solve_shepp(ivanovs2, 1.8)
    for j in (0, 1):
        assert abs(u_fn(sol.rep, j, sol.states[j].c)) < 1e-8


def test_value_formula_anchors(ivanovs2):
    sol = solve_shepp(ivanovs2, 1.8)
    # at zero drawdown the value is m_j, the solution of the per-state
    # linear system; stopped-gain Monte Carlo at dt = 2.5e-4 (20k paths)
    # gives 1.1024 and 1.1889, extrapolating in sqrt(dt) to ~1.114 and
    # ~1.197 (the fixed-c_j formula [Z(c_j) 1]_j gives 1.111977, 1.150910)
    assert abs(sol.value(0.0, 0.0, 0, 0) - 1.111779) < 1e-4
    assert abs(sol.value(0.0, 0.0, 1, 1) - 1.197053) < 1e-4
    # stop region: drawdown beyond the boundary pays the gain itself
    assert sol.value(0.0, sol.states[0].c + 0.3, 0, 0) == sol.gain.f(
        sol.states[0].c + 0.3, 0)
    with pytest.raises(ValidationError):
        sol.value(1.0, 0.5, 0, 0)


def test_value_scales_with_gain_weights(ivanovs2):
    base = solve_shepp(ivanovs2, 1.8)
    doubled = solve_shepp(ivanovs2, 1.8, h=np.array([2.0, 2.0]))
    # same boundaries, value scales linearly in h
    assert abs(doubled.states[0].c - base.states[0].c) < 1e-10
    assert abs(doubled.value(0.0, 0.0, 0, 0) -
               2 * base.value(0.0, 0.0, 0, 0)) < 1e-10


def test_normal_reflection_at_maximum(ivanovs2):
    """Single-state smooth fit: with c_j held fixed, the s-derivative of
    f(s, j) [Z(s0 - s + c_j) 1]_j vanishes at x = s exactly when c_j is the
    root of u_j, and a shifted boundary breaks it.  This is the property
    that makes c_j the u_j root; it is not stationarity of
    StopSolution.value, whose maximiser over c at q = 1.8 is
    (0.2252, 0.1890)."""
    sol = solve_shepp(ivanovs2, 1.8)
    rep = sol.rep
    gain = sol.gain
    s0, d = 0.4, 1e-4

    def formula(c, j, s):
        from mapstop.scale import eval_z_one
        y = s0 - s + c
        z = 1.0 if y <= 0 else float(eval_z_one(rep, y)[j])
        return gain.f(s, j) * z

    for j in (0, 1):
        c_star = sol.states[j].c
        right = (formula(c_star, j, s0 + d) - formula(c_star, j, s0)) / d
        wrong = (formula(c_star + 0.05, j, s0 + d) - formula(c_star + 0.05, j, s0)) / d
        assert abs(right) < abs(wrong) / 10.0


def test_boundary_missing_raises(ivanovs2):
    sol = solve_shepp(ivanovs2, 1.5)
    with pytest.raises(BoundaryMissing):
        sol.boundary(1)
    # the value needs every c_k, since the boundary switches with Jbar
    with pytest.raises(BoundaryMissing):
        sol.value(0.0, 0.0, 0, 0)


def test_ode_flat_for_exponential_gain(ivanovs2):
    """With f'/f = 1 the ODE solution through the root boundary stays
    constant, matching the closed-form result."""
    sol = solve_shepp(ivanovs2, 1.8)
    init = np.array([st.c for st in sol.states])
    curves = solve_boundary_ode(ivanovs2, 1.8, sol.gain, (0.1, 0.8), init,
                                step=2e-3)
    for j, curve in enumerate(curves):
        assert curve.completed
        assert curve.violations == ()
        assert np.abs(curve.g - init[j]).max() < 1e-6


def test_ode_capped_gain_flat_region(ivanovs2):
    """Beyond the cap knee f is constant, so g'(s) = 1 exactly and the
    boundary climbs linearly."""
    gain = GainSpec.capped(np.ones(2), 1.2, 0.5)
    sol = solve_shepp(ivanovs2, 1.8)
    init = np.array([st.c for st in sol.states])
    s0 = 0.8
    curves = solve_boundary_ode(ivanovs2, 1.8, gain, (s0, s0 + 0.3), init,
                                step=2e-3)
    for j, curve in enumerate(curves):
        assert curve.completed
        assert curve.violations == ()
        expect = init[j] + (curve.s - s0)
        assert np.abs(curve.g - expect).max() < 1e-9


def test_ode_rejects_bad_range(ivanovs2):
    gain = GainSpec.capped(np.ones(2), 1.5, 2.0)
    with pytest.raises(ValidationError):
        solve_boundary_ode(ivanovs2, 1.8, gain, (0.0, 1.0),
                           np.array([0.2, 0.15]))


def test_gain_spec_shapes():
    g = GainSpec.shepp(np.array([1.0, 2.0]))
    assert abs(g.f(0.3, 1) - 2.0 * math.exp(0.3)) < 1e-12
    assert abs(g.f_prime(0.3, 1) - g.f(0.3, 1)) < 1e-12
    capped = GainSpec.capped(np.array([1.0, 1.0]), 1.5, 2.0)
    assert capped.s_min >= math.log(1.5) - 1e-12
    assert capped.f(2.5, 0) == capped.f(3.5, 0)  # flat beyond eps
    assert capped.f_prime(2.5, 0) == 0.0
