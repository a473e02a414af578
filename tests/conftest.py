import numpy as np
import pytest

from mapstop.config import load_model
from mapstop.jumps import JumpLaw
from mapstop.model import LevyComponent, MapModel


@pytest.fixture(scope="session")
def ivanovs2():
    return load_model("ivanovs2")


@pytest.fixture(scope="session")
def wiener2():
    return load_model("wiener2")


def random_model(seed, n=None):
    """Small random model with valid structure, of n states or, by default,
    two or three.

    Drifts are biased upward so kappa'(0) tends to stay positive and the
    examples remain numerically tame.
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 4))
    Q = rng.uniform(0.3, 2.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    comps = []
    for i in range(n):
        sigma2 = float(rng.choice([0.0, 1.0, 0.5]))
        drift = float(rng.uniform(0.5, 2.0))
        jumps = ()
        if rng.random() < 0.7:
            rate = float(rng.uniform(0.3, 1.5))
            law = JumpLaw.erlang(int(rng.integers(1, 3)), float(rng.uniform(1.5, 4.0)))
            jumps = ((rate, law),)
        comps.append(LevyComponent(drift=drift, sigma2=sigma2, jumps=jumps))
    switch = None
    if rng.random() < 0.5:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i != j and rng.random() < 0.4:
                    row.append(JumpLaw.exponential(float(rng.uniform(1.5, 4.0))))
                else:
                    row.append(JumpLaw.none())
            rows.append(tuple(row))
        switch = tuple(rows)
    return MapModel(q_matrix=Q, components=tuple(comps), switch_jumps=switch)
