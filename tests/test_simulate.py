"""Monte Carlo engine checks.

Kept at modest path counts so the whole file stays around half a minute;
the heavy statistical comparisons live in the acceptance tests.
"""

import warnings

import numpy as np
import pytest

from mapstop import simulate
from mapstop.errors import HorizonTooShort, ValidationError
from mapstop.fluctuation import one_sided_up, two_sided_down, two_sided_up
from mapstop.scale import spectral_decompose
from mapstop.simulate import (SimConfig, _Tape, estimate_exit,
                              estimate_stopped_gain, sample_path, verify_mgf)
from mapstop.stopping import GainSpec, solve_shepp


def small_cfg(n=400, dt=1e-3, horizon=50.0, seed=20260822):
    return SimConfig(dt=dt, horizon=horizon, n_paths=n, master_seed=seed)


def test_tape_rows_are_philox_streams():
    """Each tape row reads numpy's Philox stream keyed [seed, tag] bit for
    bit, while uneven takes over changing row subsets carry every row
    through several refills that start inside a four-word block."""
    seed = 20260822
    tags = [0, (1 << 40) | 7, (3 << 40) | 19999]
    tape = _Tape(seed, tags)
    got = [[] for _ in tags]
    i = 0
    while min(map(len, got)) <= 600:
        idx = np.array([r for r in range(len(tags)) if (i + r) % 4])
        for r, row in zip(idx, tape.take(idx, (1, 2, 3, 5, 9)[i % 5])):
            got[r].extend(row)
        i += 1
    for tag, draws in zip(tags, got):
        ref = np.random.Generator(np.random.Philox(key=[seed, tag]))
        assert np.array_equal(np.array(draws), ref.random(len(draws)))


def test_tape_keys_every_64_bit_seed():
    """Seeds at and above 2**63 keep their own key words: numpy's key
    conversion maps 2**63 + 5 to 2**63 and 2**64 - 1 to 0 (with a
    RuntimeWarning), and the tape does not go through it."""
    idx = np.array([0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = {seed: _Tape(seed, [7]).take(idx, 8)
                 for seed in (0, 2**63, 2**63 + 5, 2**64 - 1)}
    assert len({d.tobytes() for d in draws.values()}) == 4


def test_tape_builds_one_bit_generator(monkeypatch):
    """A tape over 20,000 paths constructs one Philox, not one per path."""
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(simulate.np.random, "Philox", counting)
    tape = _Tape(20260822, [(1 << 40) | p for p in range(20000)])
    assert tape.take(np.arange(20000), 2).shape == (20000, 2)
    assert len(built) <= 1


def test_sample_path_structure(ivanovs2):
    rec = sample_path(ivanovs2, small_cfg(), 17, x0=0.3, start_state=1)
    t, x, j, xbar, jbar = (rec[:, k] for k in range(5))
    assert t[0] == 0.0
    assert x[0] == 0.3
    assert j[0] == 1
    assert (np.diff(t) > 0).all()
    assert set(np.unique(j)) <= {0.0, 1.0}
    # the recorded maximum dominates the recorded level everywhere and can
    # exceed its running max when a peak falls inside a jump event
    running = np.maximum.accumulate(x)
    assert (xbar >= running - 1e-12).all()
    assert (xbar >= x - 1e-12).all()
    assert (xbar[1:] >= xbar[:-1] - 1e-15).all()


def test_sample_path_deterministic(ivanovs2):
    a = sample_path(ivanovs2, small_cfg(), 3)
    b = sample_path(ivanovs2, small_cfg(), 3)
    assert np.array_equal(a, b)
    c = sample_path(ivanovs2, small_cfg(), 4)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_estimate_exit_bitwise_deterministic(ivanovs2):
    cfg = small_cfg(300)
    r1 = estimate_exit(ivanovs2, cfg, 1.5, 0.5, 1.0)
    r2 = estimate_exit(ivanovs2, cfg, 1.5, 0.5, 1.0)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.value, b.value)
        assert np.array_equal(a.std_error, b.std_error)


def test_estimate_exit_matches_analytic(ivanovs2):
    q, x, a = 1.5, 0.5, 1.0
    cfg = small_cfg(1500)
    est0, est1, est2 = estimate_exit(ivanovs2, cfg, q, x, a)
    rep = spectral_decompose(ivanovs2, q)
    targets = (one_sided_up(ivanovs2, q, x, a), two_sided_up(rep, x, a),
               two_sided_down(rep, x, a))
    for est, tgt in zip((est0, est1, est2), targets):
        dev = np.abs(est.value - tgt)
        assert (dev <= 3.0 * est.std_error + 0.01).all()


def test_exit_killed_below_unkilled(ivanovs2):
    """Same paths price both identities, so the ordering is exact."""
    cfg = small_cfg(300)
    est0, est1, _ = estimate_exit(ivanovs2, cfg, 1.5, 0.5, 1.0)
    assert (est1.value <= est0.value + 1e-15).all()


def test_exit_immediate_at_barrier(ivanovs2):
    cfg = small_cfg(200)
    est0, est1, est2 = estimate_exit(ivanovs2, cfg, 1.5, 1.0, 1.0)
    assert np.array_equal(est0.value, np.eye(2))
    assert np.array_equal(est1.value, np.eye(2))
    assert np.abs(est2.value).max() == 0.0
    assert np.abs(est0.std_error).max() == 0.0


def test_exit_probabilities_sum_to_one_undiscounted(ivanovs2):
    """At q = 0 every path leaves the strip, so up and down exhaust."""
    cfg = small_cfg(500)
    _, est1, est2 = estimate_exit(ivanovs2, cfg, 0.0, 0.5, 1.0)
    total = (est1.value + est2.value).sum(axis=1)
    se = np.sqrt((est1.std_error**2 + est2.std_error**2).sum(axis=1))
    assert (np.abs(total - 1.0) <= 3.0 * se + 0.01).all()


def test_exit_dt_refinement(ivanovs2):
    """Halving dt may not worsen the worst-entry error much; both grids
    stay inside the standard tolerance."""
    q, x, a = 1.5, 0.5, 1.0
    rep = spectral_decompose(ivanovs2, q)
    tgt = two_sided_up(rep, x, a)
    errs = {}
    for dt in (1e-3, 5e-4):
        cfg = small_cfg(1200, dt=dt)
        _, est1, _ = estimate_exit(ivanovs2, cfg, q, x, a)
        dev = np.abs(est1.value - tgt)
        assert (dev <= 3.0 * est1.std_error + 0.01).all()
        errs[dt] = dev.max()
    assert errs[5e-4] <= errs[1e-3] + 0.02


def test_horizon_too_short_raises(ivanovs2):
    cfg = small_cfg(100, horizon=0.5)
    with pytest.raises(HorizonTooShort):
        estimate_exit(ivanovs2, cfg, 1.5, 0.5, 40.0)


def test_exit_rejects_coarse_dt(ivanovs2):
    cfg = small_cfg(100, dt=5e-3)
    with pytest.raises(ValidationError):
        estimate_exit(ivanovs2, cfg, 1.5, 0.5, 1.0)


def test_mgf_matches_exponent(ivanovs2):
    cfg = small_cfg(600, dt=2e-3, horizon=2.0)
    est, analytic = verify_mgf(ivanovs2, cfg, 0.5, 1.0)
    dev = np.abs(est.value - analytic)
    assert (dev <= 3.0 * est.std_error + 0.01).all()


def test_mgf_rejects_pole_domain(ivanovs2):
    cfg = small_cfg(100)
    with pytest.raises(ValidationError):
        verify_mgf(ivanovs2, cfg, -3.5, 1.0)


def test_stopped_gain_immediate_stop(ivanovs2):
    """Starting beyond the boundary pays the gain at once, exactly."""
    cfg = small_cfg(150)
    gain = GainSpec.shepp(np.ones(2))
    est = estimate_stopped_gain(ivanovs2, cfg, 1.8, gain,
                                np.array([0.0, 0.0]), (0.0, 0.5, 0, 0))
    assert abs(est.value - gain.f(0.5, 0)) < 1e-14
    assert est.std_error == 0.0
    assert est.n_effective == 150


def test_stopped_gain_near_formula(ivanovs2):
    q = 1.8
    sol = solve_shepp(ivanovs2, q)
    cs = np.array([st.c for st in sol.states])
    gain = GainSpec.shepp(np.ones(2))
    cfg = small_cfg(1500)
    est = estimate_stopped_gain(ivanovs2, cfg, q, gain, cs, (0.0, 0.0, 0, 0))
    assert abs(est.value - sol.value(0.0, 0.0, 0, 0)) <= \
        3.0 * est.std_error + 0.03


def test_stopped_gain_deterministic(ivanovs2):
    gain = GainSpec.shepp(np.ones(2))
    cfg = small_cfg(300)
    a = estimate_stopped_gain(ivanovs2, cfg, 1.8, gain,
                              np.array([0.23, 0.15]), (0.0, 0.0, 1, 1))
    b = estimate_stopped_gain(ivanovs2, cfg, 1.8, gain,
                              np.array([0.23, 0.15]), (0.0, 0.0, 1, 1))
    assert a.value == b.value and a.std_error == b.std_error


def test_boundary_forms_agree(ivanovs2):
    """Constant array and callable boundary descriptions give identical
    estimates on the same seeds."""
    gain = GainSpec.shepp(np.ones(2))
    cfg = small_cfg(300)
    cs = np.array([0.22, 0.14])
    a = estimate_stopped_gain(ivanovs2, cfg, 1.8, gain, cs, (0.0, 0.0, 0, 0))
    b = estimate_stopped_gain(ivanovs2, cfg, 1.8, gain,
                              lambda s, j: np.where(j == 0, 0.22, 0.14),
                              (0.0, 0.0, 0, 0))
    assert a.value == b.value


def test_wiener_exit_matches_closed_form(wiener2):
    q, x, a = 1.5, 0.5, 1.0
    cfg = small_cfg(1200)
    _, est1, _ = estimate_exit(wiener2, cfg, q, x, a)
    rep = spectral_decompose(wiener2, q)
    tgt = two_sided_up(rep, x, a)
    dev = np.abs(est1.value - tgt)
    assert (dev <= 3.0 * est1.std_error + 0.01).all()
