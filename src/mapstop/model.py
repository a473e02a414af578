"""Markov additive process model and its matrix exponent.

The process pair (X, J) consists of a finite irreducible modulator J with
rate matrix Q and, while J sits in state i, a spectrally negative Levy
ordinator X with drift a_i, Gaussian variance sigma2_i and finite-activity
negative compound-Poisson jumps.  A switch i -> j may add an extra
nonpositive jump U_{i,j}.

The matrix exponent

    Psi(z) = diag(psi_1(z), ..., psi_N(z)) + Q o G(z),

with G_{ij}(z) the transform of U_{i,j}, characterizes the law through
E[e^{z X_t}; J_t = j | J_0 = i] = (e^{Psi(z) t})_{ij}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BracketFailure, EigenFailure, ModelShapeMismatch, PoleHit,
                     ValidationError)
from .jumps import NONE_LAW, JumpLaw

__all__ = [
    "LevyComponent",
    "MapModel",
    "big_psi",
    "kappa",
    "perron_vector",
    "phi",
    "stationary_law",
]

POLE_TOL = 1e-12
THETA_MAX = 1e3


@dataclass(frozen=True)
class LevyComponent:
    """Per-state spectrally negative Levy description.

    drift : real linear coefficient a_i
    sigma2 : Gaussian variance, >= 0
    jumps : tuple of (rate, JumpLaw) compound-Poisson parts, rate > 0
    """

    drift: float
    sigma2: float = 0.0
    jumps: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "drift", float(self.drift))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        jumps = tuple((float(r), law) for r, law in self.jumps)
        for r, law in jumps:
            if not 0 < r < np.inf:
                raise ModelShapeMismatch("compound-Poisson rate must be finite and > 0")
            if law.is_none:
                raise ModelShapeMismatch("jump part needs a nontrivial law")
        object.__setattr__(self, "jumps", jumps)

    @property
    def is_bv(self) -> bool:
        """Bounded variation: no Gaussian part (jumps here are always CP)."""
        return self.sigma2 == 0.0

    @property
    def total_jump_rate(self) -> float:
        return sum(r for r, _ in self.jumps)

    def psi(self, z):
        """Laplace exponent psi_i(z) = a z + sigma2 z^2/2 + sum r (G(z)-1)."""
        out = self.drift * z + 0.5 * self.sigma2 * z * z
        for r, law in self.jumps:
            out = out + r * (law.transform(z) - 1.0)
        return out

    def poles(self):
        out = []
        for _, law in self.jumps:
            out.extend(law.poles())
        return out


@dataclass(frozen=True)
class MapModel:
    """Complete MAP specification.

    q_matrix : (N, N) conservative rate matrix of the modulator
    components : tuple of N LevyComponent
    switch_jumps : N x N tuple-of-tuples of JumpLaw; diagonal ignored,
        entries with q_{ij} = 0 treated as none.

    Construction raises ModelShapeMismatch naming every standing assumption
    that fails, so a model that exists has well-defined scale matrices.
    """

    q_matrix: np.ndarray
    components: tuple
    switch_jumps: tuple = None

    def __post_init__(self):
        Q = np.array(self.q_matrix, dtype=float)
        Q.setflags(write=False)
        object.__setattr__(self, "q_matrix", Q)
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        n = len(comps)
        if Q.shape != (n, n):
            raise ModelShapeMismatch("q_matrix shape does not match component count")
        sj = self.switch_jumps
        if sj is None:
            sj = tuple(tuple(NONE_LAW for _ in range(n)) for _ in range(n))
        else:
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    law = sj[i][j]
                    if i == j or Q[i, j] == 0.0:
                        law = NONE_LAW
                    row.append(law)
                rows.append(tuple(row))
            sj = tuple(rows)
        object.__setattr__(self, "switch_jumps", sj)
        problems = _assumption_failures(Q, comps)
        if problems:
            raise ModelShapeMismatch("model failed validation: " + "; ".join(problems))

    @property
    def n_states(self) -> int:
        return len(self.components)

    def transform_poles(self):
        """All transform poles (locations on the negative axis)."""
        locs = []
        for comp in self.components:
            locs.extend(loc for loc, _ in comp.poles())
        for i in range(self.n_states):
            for j in range(self.n_states):
                if self.q_matrix[i, j] != 0.0 and i != j:
                    locs.extend(loc for loc, _ in self.switch_jumps[i][j].poles())
        return sorted(set(locs))


def _assumption_failures(Q, components):
    """The paper's standing assumptions, as "rule: message" for each one broken."""
    out = []
    n = len(components)
    values = [*Q.ravel(), *(v for c in components for v in (c.drift, c.sigma2))]
    if not np.isfinite(values).all():  # NaN would read false in every rule below
        return ["finite: Q, drift and sigma2 must be finite numbers"]
    off = Q - np.diag(np.diag(Q))
    if (off < 0).any():
        out.append("q_offdiag: Q has a negative off-diagonal entry")
    rowsum = np.abs(Q.sum(axis=1)).max()
    if rowsum > 1e-10:
        out.append(f"q_rowsum: Q rows do not sum to 0 (max |sum| {rowsum:.2e})")
    if n > 1 and not _irreducible(Q):
        out.append("q_reducible: Q is not irreducible")
    for i, comp in enumerate(components):
        if comp.sigma2 < 0:
            out.append(f"sigma2_negative: state {i + 1}: sigma2 < 0")
        if comp.is_bv and comp.drift <= 0:
            out.append(
                f"monotone_path: state {i + 1}: bounded variation requires drift > 0 "
                "(path would be non-increasing)"
            )
    return out


def _irreducible(Q) -> bool:
    n = Q.shape[0]
    adj = (Q > 0).astype(int)
    reach = np.eye(n, dtype=int)
    for _ in range(n):
        reach = ((reach + reach @ adj) > 0).astype(int)
    return bool(reach.all())


# --- matrix exponent --------------------------------------------------


def _check_pole(model: MapModel, z):
    for loc in model.transform_poles():
        if abs(z - loc) < POLE_TOL:
            raise PoleHit(f"z = {z} is within {POLE_TOL} of transform pole {loc}")


def big_psi(model: MapModel, z):
    """Matrix exponent Psi(z) as a complex N x N array."""
    _check_pole(model, z)
    n = model.n_states
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        out[i, i] = model.components[i].psi(z) + model.q_matrix[i, i]
        for j in range(n):
            if i != j:
                qij = model.q_matrix[i, j]
                if qij != 0.0:
                    out[i, j] = qij * model.switch_jumps[i][j].transform(z)
    return out


# --- Perron root and friends -----------------------------------------


def kappa(model: MapModel, theta: float) -> float:
    """Perron-Frobenius eigenvalue of Psi(theta) for finite real theta."""
    theta = float(theta)
    if not -np.inf < theta < np.inf:
        raise ValidationError("theta must be finite")
    M = big_psi(model, theta)
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    lead = vals[np.argmax(vals.real)]
    scale = 1.0 + np.abs(vals).max()
    if abs(lead.imag) > 1e-10 * scale:
        raise EigenFailure(f"leading eigenvalue not real: {lead}")
    return float(lead.real)


def stationary_law(model: MapModel):
    """Stationary distribution pi of Q (normalized left null vector)."""
    Q = model.q_matrix
    n = model.n_states
    if n == 1:
        return np.ones(1)
    A = np.vstack([Q.T, np.ones(n)])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


def perron_vector(model: MapModel, theta: float):
    """Right eigenvector v(theta) > 0 of Psi(theta), scaled so pi.v = 1."""
    M = big_psi(model, float(theta))
    try:
        vals, vecs = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    idx = int(np.argmax(vals.real))
    v = vecs[:, idx]
    scale = np.abs(v).max()
    if np.abs(v.imag).max() > 1e-9 * scale:
        raise EigenFailure("Perron eigenvector has a nonreal component")
    v = v.real
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    if (v <= 0).any():
        raise EigenFailure("Perron eigenvector not strictly positive")
    pi = stationary_law(model)
    return v / float(pi @ v)


def phi(model: MapModel, q: float) -> float:
    """Right inverse Phi(q) = sup{theta >= 0 : kappa(theta) = q}."""
    q = float(q)
    if not 0 <= q < np.inf:
        raise ValidationError("q must be finite and >= 0")
    hi = 1.0
    while kappa(model, hi) <= q:
        hi *= 2.0
        if hi > THETA_MAX:
            raise BracketFailure(f"kappa(theta) <= {q} for all theta <= {THETA_MAX}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # fixed point: further steps change nothing
            break
        if kappa(model, mid) > q:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
