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


def exchangeable_model(d=0.0, n=3):
    """n identical states, each with drift 1, sigma2 0.5 and Exp(2) jumps at
    rate 1, switching at rate 1 to every other state; d is added to the
    (2, 1) rate.  At d = 0 the MAP is a Levy process in law, and
    det(Psi(z) - q I) = (psi(z) - q)(psi(z) - q - n)^{n-1}: the roots of
    the second factor repeat n - 1 times, semisimple as Psi(z) = psi(z) I + Q."""
    Q = np.ones((n, n))
    Q[1, 0] += d
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    comp = LevyComponent(1.0, 0.5, ((1.0, JumpLaw.exponential(2.0)),))
    return MapModel(Q, (comp,) * n)


# one state, drift 1, jumps at rate 2e4 of mean size 1e-4: about 2e4
# events per unit of time on every path
BUSY = {"states": 1, "Q": [0.0], "drift": [1.0], "sigma2": [0.0],
        "jumps": [{"state": 1, "rate": 2e4, "kind": "exponential",
                   "jump_rate": 1e4}]}


def check_scale_csv(path, table):
    """ScaleTable.to_csv layout: a '# q=.. states=N' line, the column names,
    then x, W, Z (row-major), [W 1], [Z 1] and u per grid point, each
    matching the table to 1e-9 relative."""
    n = table.n_states
    with open(path) as fh:
        assert fh.readline() == f"# q={table.q:.12g} states={n}\n"
        cols = fh.readline().strip().split(",")
    assert cols[:2] == ["x", "w_11"] and cols[-1] == f"u_{n}"
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    m = len(table.grid)
    parts = [table.grid[:, None], table.w.reshape(m, n * n),
             table.z.reshape(m, n * n), table.w_row, table.z_row, table.u]
    assert data.shape == (m, len(cols)) == (m, sum(p.shape[1] for p in parts))
    k = 0
    for want in parts:
        got = data[:, k:k + want.shape[1]]
        k += want.shape[1]
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
