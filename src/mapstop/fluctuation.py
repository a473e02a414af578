"""Exit identities and the harmonicity diagnostic.

Three discounted exit functionals of the additive process started at
level x in modulator state i, for barriers 0 and a:

    id0  E[e^{-q T_a}; J = j]                 (one-sided up-crossing)
    id1  E[e^{-q T_a}; T_a < T_0, J = j]      (up before down)
    id2  E[e^{-q T_0}; T_0 < T_a, J = j]      (down before up)

id0 comes from the residues at the positive spectral roots.  id1 and id2
are W(x) W(a)^{-1} and Z(x) - W(x) W(a)^{-1} Z(a), both read from one
kernel that scales the up-root growth out of W before it inverts, so they
hold at any barrier height.  The generator residual H_i(x)
verifies that x -> [Z^(q)(x) 1]_i kills the discounted generator on
x > 0 and equals -q below zero.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .errors import EigenFailure, QuadratureFailure, ValidationError
from .model import MapModel, big_psi
from .scale import (
    SpectralRep,
    _real_cast,
    eval_w_one,
    eval_w_one_deriv,
    eval_z_one,
    spectral_decompose,
)

__all__ = [
    "one_sided_up",
    "two_sided_up",
    "two_sided_down",
    "generator_check",
]

TAIL_MEANS = 40.0


# --- one-sided up-crossing --------------------------------------------


def one_sided_up(model: MapModel, q: float, x: float, a: float):
    """E_{(x,i)}[e^{-q tau_a^+}; J_{tau_a^+} = j] for x <= a, indices 0-based.

    H diag(e^{-zeta_k (a - x)}) H^{-1} over the N positive-real-part roots
    zeta_k with null vectors h_k.  Their residues are rank one, R_k = h_k g_k,
    so this is [sum_k R_k e^{-zeta_k (a - x)}] [sum_k R_k]^{-1}.  Raises
    EigenFailure when a residue misses its root, i.e. |(Psi(zeta_k) - q I)
    R_k| > 1e-8 (1 + |Psi(zeta_k) - q I|) max|R_k|.
    """
    if not -np.inf < x <= a < np.inf:
        raise ValidationError("requires finite x <= a")
    rep = spectral_decompose(model, q)
    up = rep.roots.real > 0
    pos, R = rep.roots[up], rep.residues[up]
    for z, Rk in zip(pos, R):
        A = big_psi(model, z) - q * np.eye(model.n_states)
        if np.abs(A @ Rk).max() > 1e-8 * (1.0 + np.abs(A).max()) * np.abs(Rk).max():
            raise EigenFailure(f"residue misses its root {z}")
    d = np.exp(-pos * (a - float(x)))
    out = np.einsum("k,kij->ij", d, R) @ np.linalg.inv(R.sum(axis=0))
    mag = np.abs(out.real).max()
    if np.abs(out.imag).max() > 1e-8 * (1.0 + mag):
        raise EigenFailure("first-passage matrix came out non-real")
    return out.real


# --- two-sided exits ---------------------------------------------------


def _two_sided(rep: SpectralRep, x: float, a: float):
    """(up, down) = (W(x) W(a)^{-1}, Z(x) - W(x) W(a)^{-1} Z(a)), free of growth.

    The N up-roots lead rep.roots; their residues are rank one, S = sum_up R_k = H G
    and D(a) = S^{-1} sum_up R_k e^{-zeta_k a} = G^{-1} E(-a) G.  With L(y) the
    other roots' sum, up = [W(x) D(a)] [W(a) D(a)]^{-1}, W(y) D(a) = sum_up R_k
    e^{zeta_k (y-a)} + L(y) D(a).  With C = S^{-1} sum_up R_k/zeta_k,
    Z = W C (qI - Q) + N and down = N(x) - up N(a).  No exponent is positive for
    0 <= x <= a; x < 0 gives (0, I); a singular W(a) raises EigenFailure.
    """
    if not -np.inf < x <= a < np.inf:
        raise ValidationError("requires finite x <= a")
    n = rep.n_states
    if x < 0:
        return np.zeros((n, n)), np.eye(n)
    z_u, z_d = rep.roots[:n], rep.roots[n:]
    em1_d = np.expm1(np.outer([x, a], z_d))
    w_u = np.array([np.exp(z_u * (x - a)), np.ones(n), np.exp(-z_u * a), 1.0 / z_u])
    E_x, S, E_a, R_z = (w_u @ rep.residues[:n].reshape(n, -1)).reshape(4, n, n)
    w_d = np.concatenate([em1_d + 1.0, em1_d / z_d])  # L(x), L(a), then their integrals
    L, T = (w_d @ rep.residues[n:].reshape(len(z_d), -1)).reshape(2, 2, n, n)
    D_a, C = np.linalg.solve(S, np.array([E_a, R_z]))
    N = np.eye(n) + (T - (S + L) @ C) @ (rep.q * np.eye(n) - rep.q_matrix)  # N(x), N(a)
    try:
        up = np.linalg.solve((S + L[1] @ D_a).T, (E_x + L[0] @ D_a).T).T
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"W(a) is singular at a = {a}") from exc
    return _real_cast(up), _real_cast(N[0] - up @ N[1])


def two_sided_up(rep: SpectralRep, x: float, a: float):
    """E_{(x,i)}[e^{-q tau_a^+}; tau_a^+ < tau_0^-, J = j] = W(x) W(a)^{-1}."""
    return _two_sided(rep, x, a)[0]


def two_sided_down(rep: SpectralRep, x: float, a: float):
    """E_{(x,i)}[e^{-q tau_0^-}; tau_0^- < tau_a^+, J = j].

    Z(x) - W(x) W(a)^{-1} Z(a); the identity matrix for x <= 0 (the level
    starts below the barrier, so the exit is immediate and undiscounted).
    """
    return _two_sided(rep, x, a)[1]


# --- generator residual ------------------------------------------------


def _jump_integral(law, f, x, budget):
    """integral f(x - u) dF(u) over u > 0 with f = 1 on the negative axis.

    Quadrature runs on (0, upper) with upper = min(x, 40 mean jump sizes);
    the remaining mass contributes survival(upper) (f there is 1 up to a
    tail beyond 40 means, which carries ~e^{-40} relative weight).
    """
    if x <= 0:
        return 1.0
    mean = -law.mean()
    upper = min(x, TAIL_MEANS * mean)
    val, err = quad(
        lambda u: float(law.density_mag(u)) * f(x - u),
        0.0,
        upper,
        epsabs=1e-11,
        epsrel=1e-11,
        limit=200,
    )
    budget.append(err)
    return val + float(law.survival_mag(upper))


def generator_check(model: MapModel, rep: SpectralRep, x: float, i: int) -> float:
    """Residual H_i(x) of the discounted generator on [Z^(q) 1]_i.

    Zero (to quadrature accuracy) for x > 0 and exactly -q for x < 0,
    reflecting that the row sums of Z^(q) are q-harmonic above the origin.
    i is a 0-based state index; x must be nonzero (ValidationError).

    Raises QuadratureFailure when the accumulated quadrature error
    estimate exceeds 1e-6 (1 + |q|).
    """
    x = float(x)
    if x == 0.0:
        raise ValidationError("the residual is two-valued at x = 0; pick a side")
    q = rep.q
    n = model.n_states

    def f(j, y):
        return 1.0 if y <= 0 else float(eval_z_one(rep, y)[j])

    comp = model.components[i]
    budget = []
    total = 0.0  # [Z 1] is constant on x <= 0: no drift or diffusion term
    if x > 0:
        total = comp.drift * (q * float(eval_w_one(rep, x)[i]))
        if comp.sigma2 > 0:
            total += 0.5 * comp.sigma2 * (q * float(eval_w_one_deriv(rep, x)[i]))
    for r, law in comp.jumps:
        total += r * (_jump_integral(law, lambda y: f(i, y), x, budget) - f(i, x))
    for j in range(n):
        if j != i and model.q_matrix[i, j] != 0.0:
            law = model.switch_jumps[i][j]
            if law.is_none:
                total += model.q_matrix[i, j] * f(j, x)
            else:
                total += model.q_matrix[i, j] * _jump_integral(
                    law, lambda y: f(j, y), x, budget
                )
    total += model.q_matrix[i, i] * f(i, x)
    total -= q * f(i, x)
    if sum(budget) > 1e-6 * (1.0 + abs(q)):
        raise QuadratureFailure(
            f"jump-integral error budget {sum(budget):.2e} too large at x={x}"
        )
    return total
