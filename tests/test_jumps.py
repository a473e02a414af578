import numpy as np

from mapstop.jumps import JumpLaw


def test_exponential_transform():
    law = JumpLaw.exponential(3.0)
    for z in (0.0, 0.5, 1.0, 2.5):
        assert abs(law.transform(z) - 3.0 / (3.0 + z)) < 1e-14
    assert abs(law.mean() + 1.0 / 3.0) < 1e-14


def test_erlang_transform_and_mean():
    law = JumpLaw.erlang(2, 2.0)
    z = 0.7
    assert abs(law.transform(z) - (2.0 / 2.7) ** 2) < 1e-14
    assert abs(law.mean() + 1.0) < 1e-14


def test_mixture_normalizes_weights():
    law = JumpLaw.mixture([(2.0, 1, 1.0), (6.0, 2, 3.0)])
    ws = [w for w, _, _ in law.components]
    assert abs(sum(ws) - 1.0) < 1e-14
    assert abs(ws[0] - 0.25) < 1e-14


def test_density_integrates_to_one_and_matches_mean():
    law = JumpLaw.mixture([(0.3, 1, 2.0), (0.7, 3, 4.0)])
    u = np.linspace(0.0, 40.0, 400001)
    f = law.density_mag(u)
    mass = np.trapezoid(f, u)
    mean = np.trapezoid(u * f, u)
    assert abs(mass - 1.0) < 1e-8
    assert abs(mean + law.mean()) < 1e-8


def test_survival_consistent_with_density():
    law = JumpLaw.erlang(3, 1.5)
    u = 1.3
    grid = np.linspace(u, 60.0, 200001)
    tail = np.trapezoid(law.density_mag(grid), grid)
    assert abs(tail - law.survival_mag(u)) < 1e-8


def test_poles_merge_multiplicity():
    law = JumpLaw.mixture([(0.5, 2, 3.0), (0.5, 1, 3.0)])
    assert law.poles() == [(-3.0, 2)]


def test_sample_mag_consumption_and_law():
    rng = np.random.default_rng(7)
    law = JumpLaw.mixture([(0.5, 1, 1.0), (0.5, 3, 3.0)])
    assert law.n_pick_uniforms == 1
    assert law.k_max == 3
    n = 200000
    pick = rng.random(n)
    ue = rng.random((n, law.k_max))
    mags = law.sample_mag(pick, ue)
    assert (mags > 0).all()
    assert abs(mags.mean() - (-law.mean())) < 0.01
    # second moment: E M^2 = sum w k(k+1)/mu^2
    m2 = sum(w * k * (k + 1) / mu**2 for w, k, mu in law.components)
    assert abs((mags**2).mean() - m2) < 0.05


def test_none_law():
    law = JumpLaw.none()
    assert law.is_none
    assert law.transform(1.3) == 1.0 + 0j
    assert law.mean() == 0.0
