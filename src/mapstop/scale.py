"""Scale matrices W^(q) and Z^(q) of a spectrally negative MAP.

W^(q) is defined through its matrix Laplace transform

    integral_0^inf e^{-beta x} W^(q)(x) dx = (Psi(beta) - q I)^{-1},

valid for beta with real part beyond every singularity.  Every jump in
this package is a mixture of Erlangs, so it can be replaced by a run
through phases in which X falls at unit rate (the fluid embedding of
phase-type jumps).  The embedded process has a quadratic matrix exponent
whose Schur complement on the phases is Psi(z) - q I; linearised, it is
one generalized eigenproblem whose eigenvalues zeta_k and eigenvectors
give the explicit inversion

    W^(q)(x) = sum_k R_k e^{zeta_k x},   x >= 0,

with residue matrices R_k.  Z^(q) follows by integration,

    Z^(q)(x) = I + (sum_k R_k (e^{zeta_k x} - 1)/zeta_k)(q I - Q).

One kernel evaluates every such sum (W, Z, their row sums and the
x-derivatives); it raises BlowUp when e^{zeta_k x} overflows.  Phi(q) is
the smallest positive real root; spectral_decompose raises EigenFailure
when the Perron root kappa does not cross q there, or when sum_k R_k
misses the exact W^(q)(0+), and DegenerateRoots when a repeated root is
defective (the pencil has no full eigenvector basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig

from .errors import (
    BlowUp,
    DegenerateRoots,
    EigenFailure,
    ModelShapeMismatch,
    RootCountMismatch,
    ValidationError,
)
from .model import MapModel, kappa

__all__ = [
    "SpectralRep",
    "ScaleTable",
    "spectral_decompose",
    "eval_w",
    "eval_z",
    "eval_w_one",
    "eval_z_one",
    "eval_w_one_deriv",
    "w_zero_plus",
    "wiener_closed_form",
    "a_threshold",
]

BASIS_COND_MAX = 1e7  # sweep models <= 8.2e3, near-equal rates <= 3.1e5; defective >= 9e7
MODE_TOL = 1e-10
W0_TOL = 1e-8
IMAG_GUARD = 1e-6
X_MAX_DEFAULT = 5.0
STEP_DEFAULT = 1e-3


# --- phase-type embedding ---------------------------------------------


def _phase_embedding(model: MapModel, q: float):
    """First-order pencil (A, B) whose eigenvalues are the transform poles.

    The space holds the N modulator states and, per source state and
    Erlang stage rate mu, one chain of phases as long as the longest part
    of a jump part or switch-jump law leaving the state at rate mu.  In a
    phase X falls at unit rate and the phase moves on at rate mu; a part
    of k stages leaves after stage k with its share of the entry rate, back
    to the source state of a jump part or into the target state of a
    switch.  Shared chains keep the phases free of modes the modulator
    cannot see.  With S the Gaussian variances, D the drifts (-1 on
    phases), G the generator and Delta 1 on the modulator states,

        P(z) = S z^2 / 2 + D z + (G - q Delta),

    whose Schur complement on the phases is Psi(z) - q I.  Setting
    w = z v on the Gaussian states gives A + z B, with
    P(z)^{-1} the leading block of (A + z B)^{-1}.
    """
    n = model.n_states
    Q = model.q_matrix
    top = np.array(Q, dtype=float)
    chains = {}  # (source, stage rate) -> [(target, entry rate, stages)]
    for i, comp in enumerate(model.components):
        for r, law in comp.jumps:
            top[i, i] -= r
            for w, k, mu in law.components:
                chains.setdefault((i, mu), []).append((i, r * w, k))
        for j, law in enumerate(model.switch_jumps[i]):
            if not law.is_none:
                top[i, j] = 0.0
                for w, k, mu in law.components:
                    chains.setdefault((i, mu), []).append((j, Q[i, j] * w, k))
    m = n + sum(max(st for *_, st in parts) for parts in chains.values())
    gauss = [i for i, c in enumerate(model.components) if c.sigma2 > 0]
    extra = m + np.arange(len(gauss))
    A = np.zeros((m + len(gauss),) * 2)
    A[:n, :n] = top - q * np.eye(n)
    p = n
    for (src, mu), parts in chains.items():
        total, k = sum(rate for _, rate, _ in parts), max(st for *_, st in parts)
        A[src, p] += total
        for s in range(p, p + k):
            A[s, s] = -mu
            if s + 1 < p + k:
                A[s, s + 1] = mu
        for tgt, rate, stages in parts:
            A[p + stages - 1, tgt] += mu * (rate / total)
        p += k
    A[extra, extra] = 1.0
    drift = np.full(m, -1.0)
    drift[:n] = [c.drift for c in model.components]
    B = np.zeros_like(A)
    B[:m, :m] = np.diag(drift)
    B[gauss, extra] = [0.5 * model.components[i].sigma2 for i in gauss]
    B[extra, gauss] = -1.0
    return A, B


# --- spectral representation ------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralRep:
    """Partial-fraction data of (Psi(beta) - q I)^{-1}.

    roots : complex (K,) roots zeta_k of det(Psi(z) - q I) = 0, a root of
        multiplicity m listed m times, sorted by descending real part.
        Exactly N of them have positive real part (asserted at construction).
    residues : complex (K, N, N) rank-one R_k; those at one root sum to
        lim (beta - zeta_k)(Psi - q)^{-1}.
    root_sums : complex (K, N), the row sums R_k 1; entries below
        64 eps max|R_k| are set to 0, where they cancel analytically.
    phi_q : the positive real root equal to the Perron right inverse.
    q_matrix : modulator rate matrix, kept for Z^(q).
    """

    q: float
    roots: np.ndarray
    residues: np.ndarray
    root_sums: np.ndarray
    phi_q: float
    q_matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.q_matrix.shape[0]


def spectral_decompose(model: MapModel, q: float) -> SpectralRep:
    """Locate the transform poles in beta and their residue matrices.

    One generalized eigenproblem -A x = z B x of the phase-type pencil
    (_phase_embedding) yields every root z_k with right vector x_k.  As
    (A + beta B)^{-1} = X (beta I - Lambda)^{-1} (B X)^{-1} over the basis
    X = [x_1 ... x_K], the residue is R_k = x_k[:N] (B X)^{-1}[k, :N], for
    repeated roots too.  A mode whose right vector vanishes on the
    modulator states (max |x_k[:N]| <= 1e-10; nearly equal stage rates
    leave such modes) lives inside the phases at a pole and is dropped.

    phi_q is the smallest positive real root: any other positive real zero
    z has kappa(z) > q, so it lies above Phi(q).  Two Perron roots confirm
    it, kappa(phi_q - eps) <= q < kappa(phi_q + eps) with
    eps = 1e-9 (1 + phi_q); EigenFailure is raised otherwise, or when no
    positive real root exists, or when sum_k R_k = W(0+) misses
    w_zero_plus by more than 1e-8 (1 + max|w_zero_plus|).

    Raises DegenerateRoots when a repeated root is defective (B X singular,
    or |B X|_1 |(B X)^{-1}|_1 over the kept modes above BASIS_COND_MAX),
    and RootCountMismatch when not exactly N roots have positive real part.
    """
    q = float(q)
    if not 0 < q < math.inf:
        raise ValidationError("spectral decomposition requires finite q > 0")
    n = model.n_states
    A, B = _phase_embedding(model, q)
    vals, right = eig(-A, B)
    keep = np.flatnonzero(np.abs(right[:n]).max(axis=0) > MODE_TOL)
    BX = B @ right  # B is invertible: drift > 0 where BV, det sigma2/2 where not
    try:  # judged on the kept modes: their rows are the ones read below
        weights = np.linalg.inv(BX)
        cond = np.linalg.norm(BX[:, keep], 1) * np.linalg.norm(weights[keep], 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not cond <= BASIS_COND_MAX:
        raise DegenerateRoots(f"eigenvector basis condition {cond:.2e}: defective root")
    keep = sorted(keep, key=lambda k: (-vals[k].real, vals[k].imag))
    roots, x, g = vals[keep], right[:n, keep], weights[keep, :n]
    # snap numerically-real roots so their residues stay exactly real
    real_mask = np.abs(roots.imag) <= 1e-10 * (1.0 + np.abs(roots))
    roots = np.where(real_mask, roots.real + 0j, roots)
    n_pos = int((roots.real > 0).sum())
    if n_pos != n:
        raise RootCountMismatch(
            f"{n_pos} roots with positive real part, expected {n}"
        )
    residues = np.einsum("ik,kj->kij", x, g)
    residues = np.where(real_mask[:, None, None], residues.real + 0j, residues)
    root_sums = residues.sum(axis=2)
    peak = np.abs(residues).max(axis=(1, 2))
    root_sums[np.abs(root_sums) <= 64 * np.finfo(float).eps * peak[:, None]] = 0.0
    cand = roots.real[real_mask & (roots.real > 0)]
    if not cand.size:
        raise EigenFailure("no positive real root to match the Perron inverse")
    phi_q = float(cand.min())
    eps = 1e-9 * (1.0 + phi_q)
    if not kappa(model, phi_q - eps) <= q < kappa(model, phi_q + eps):
        raise EigenFailure(
            f"kappa does not cross q = {q} at the smallest positive root {phi_q}"
        )
    w0 = w_zero_plus(model, q)
    gap = np.abs(residues.sum(axis=0) - w0).max()
    if gap > W0_TOL * (1.0 + np.abs(w0).max()):
        raise EigenFailure(f"sum of residues misses W(0+) by {gap:.2e}")
    return SpectralRep(
        q=q,
        roots=roots,
        residues=residues,
        root_sums=root_sums,
        phi_q=phi_q,
        q_matrix=np.array(model.q_matrix, dtype=float),
    )


# --- evaluation --------------------------------------------------------


def _real_cast(arr):
    if not arr.size:
        return arr.real
    mag = np.abs(arr.real).max()
    imag = np.abs(arr.imag).max()
    if not math.isfinite(mag + imag):
        raise BlowUp("scale-matrix evaluation overflowed (e^{zeta x} too large)")
    if imag > IMAG_GUARD * (1.0 + mag):
        raise EigenFailure("scale-matrix evaluation produced a non-real result")
    return arr.real


def _spectral_sum(rep: SpectralRep, x, order: int, rows: bool, right=None):
    """sum_k w_k(x) C_k at each x, the one evaluator behind W and Z.

    order selects the weight: 0 for e^{zeta_k x}, 1 for its x-derivative
    zeta_k e^{zeta_k x} (both zero for x < 0), -1 for the integral
    (e^{zeta_k x} - 1)/zeta_k (zero for x <= 0).  C_k is the residue R_k,
    or its row sums R_k 1 when rows is set; a matrix `right` multiplies the
    sum before the imaginary parts are dropped.  Raises BlowUp when the
    sum is not finite.  Shape (N, N) or (N,) per point, with a leading
    axis unless x is a scalar.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    E = np.exp(np.outer(xs, rep.roots))
    if order == 1:
        E = E * rep.roots
    elif order == -1:
        E = (E - 1.0) / rep.roots
    E[xs <= 0 if order == -1 else xs < 0] = 0.0
    out = E @ rep.root_sums if rows else np.einsum("mk,kij->mij", E, rep.residues)
    if right is not None:
        out = out @ right
    out = _real_cast(out)
    return out[0] if np.ndim(x) == 0 else out


def eval_w(rep: SpectralRep, x):
    """W^(q)(x): zero matrix for x < 0, sum_k R_k e^{zeta_k x} for x >= 0."""
    return _spectral_sum(rep, x, 0, rows=False)


def eval_z(rep: SpectralRep, x):
    """Z^(q)(x): identity for x <= 0, I + [sum_k R_k (e^{zeta_k x}-1)/zeta_k](qI-Q)."""
    factor = rep.q * np.eye(rep.n_states) - rep.q_matrix
    z = _spectral_sum(rep, x, -1, rows=False, right=factor)
    return z + np.eye(rep.n_states)


def eval_w_one(rep: SpectralRep, x):
    """Row sums [W^(q)(x) 1], shape (N,) or (m, N)."""
    return _spectral_sum(rep, x, 0, rows=True)


def eval_w_one_deriv(rep: SpectralRep, x):
    """d/dx of the row sums [W^(q)(x) 1] for x > 0."""
    return _spectral_sum(rep, x, 1, rows=True)


def eval_z_one(rep: SpectralRep, x):
    """Row sums [Z^(q)(x) 1] = 1 + q integral_0^x [W^(q) 1] dy."""
    return 1.0 + rep.q * _spectral_sum(rep, x, -1, rows=True)


# --- boundary values ---------------------------------------------------


def w_zero_plus(model: MapModel, q: float):
    """W^(q)(0+): diagonal, 0 for unbounded-variation states, 1/a_i else."""
    vals = [
        0.0 if not c.is_bv else 1.0 / c.drift
        for c in model.components
    ]
    return np.diag(vals)


# --- independent closed form for the Brownian-modulated case -----------


def wiener_closed_form(model: MapModel, q: float):
    """x -> W^(q)(x) for a modulated standard Brownian motion.

    Requires every state to carry sigma2 = 1, zero drift, no jumps and no
    switch jumps; then Psi(z) = z^2/2 I + Q commutes with Q and

        W^(q)(x) = H diag( (2/alpha_i) sinh(alpha_i x) ) H^{-1},

    alpha_i = sqrt(2(q - lambda_i)) over the eigenvalues of Q = H L H^{-1}.
    The factor 2/alpha_i normalizes each scalar term so its transform is
    2/(beta^2 - alpha_i^2), matching (Psi(beta) - q I)^{-1} exactly.
    """
    for i, c in enumerate(model.components):
        if c.sigma2 != 1.0 or c.drift != 0.0 or c.jumps:
            raise ModelShapeMismatch(
                f"state {i + 1} is not a driftless unit-variance Brownian part"
            )
    for i in range(model.n_states):
        for j in range(model.n_states):
            if not model.switch_jumps[i][j].is_none:
                raise ModelShapeMismatch("switch jumps not allowed in the closed form")
    lam, H = np.linalg.eig(model.q_matrix)
    if not np.isfinite(np.linalg.cond(H)) or np.linalg.cond(H) > 1e12:
        raise ModelShapeMismatch("modulator rate matrix is not diagonalizable")
    if q <= lam.real.max():
        raise ModelShapeMismatch("q must exceed the top modulator eigenvalue")
    alpha = np.sqrt(2.0 * (q - lam))
    Hinv = np.linalg.inv(H)
    n = model.n_states

    def w_of(x):
        x = float(x)
        if x < 0:
            return np.zeros((n, n))
        D = np.diag(2.0 / alpha * np.sinh(alpha * x))
        return _real_cast(H @ D @ Hinv)

    return w_of


# --- threshold a(j) ----------------------------------------------------


def _grid(x_max, step):
    """Grid 0, step, ... up to x_max; ValidationError unless 0 < step <= x_max."""
    if not 0 < step <= x_max:
        raise ValidationError("scale grid needs 0 < step <= x_max")
    return np.arange(0.0, x_max + 0.5 * step, step)


def _first_crossing(grid, vals, below):
    """First point right of grid[0] where a predicate holds, or None.

    vals is the predicate on the grid and below(x) evaluates it anywhere.
    The first hit grid[k], k >= 1, is refined on [grid[k-1], grid[k]] by
    at most 60 bisections, down to a bracket of 1e-8.
    """
    hits = np.flatnonzero(vals[1:])
    if not hits.size:
        return None
    lo, hi = grid[hits[0]], grid[hits[0] + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if below(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-8:
            break
    return float(0.5 * (lo + hi))


def a_threshold(rep: SpectralRep, j: int, x_max: float = X_MAX_DEFAULT,
                step: float = STEP_DEFAULT) -> float:
    """First x > 0 with [Z^(q)(x) 1]_j <= 1, or math.inf if none up to x_max.

    j is a 0-based state index.  Grid scan at the given step, then
    bisection to 1e-8.  [Z 1]_j(0) = 1 sits on the threshold, so a hit at
    the first grid step gives a(j) = 0.  ValidationError unless
    0 < step <= x_max.
    """
    grid = _grid(x_max, step)
    vals = eval_z_one(rep, grid)[:, j] <= 1.0
    if vals[1:2].any():
        return 0.0
    a = _first_crossing(grid, vals, lambda x: eval_z_one(rep, x)[j] <= 1.0)
    return math.inf if a is None else a


# --- tabulation --------------------------------------------------------


class ScaleTable:
    """Uniform-grid tabulation of W, Z, their row sums and u = [Z 1] - q [W 1].

    The CLI writes it as CSV; point values come from eval_w_one and
    eval_z_one, not from the table.
    """

    def __init__(self, q, grid, w, z):
        self.q = float(q)
        self.grid = np.asarray(grid, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.z = np.asarray(z, dtype=float)
        self.w_row = self.w.sum(axis=2)
        self.z_row = self.z.sum(axis=2)
        self.u = self.z_row - self.q * self.w_row

    @property
    def n_states(self):
        return self.w_row.shape[1]

    @classmethod
    def from_rep(cls, rep: SpectralRep, x_max: float = X_MAX_DEFAULT,
                 step: float = STEP_DEFAULT) -> "ScaleTable":
        """Tabulate on [0, x_max] at the given step; ValidationError unless
        0 < step <= x_max."""
        grid = _grid(x_max, step)
        return cls(rep.q, grid, eval_w(rep, grid), eval_z(rep, grid))

    # CSV persistence ------------------------------------------------------

    def to_csv(self, path):
        n = self.n_states
        cols = ["x"]
        cols += [f"w_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        cols += [f"z_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        cols += [f"wrow_{j + 1}" for j in range(n)]
        cols += [f"zrow_{j + 1}" for j in range(n)]
        cols += [f"u_{j + 1}" for j in range(n)]
        m = len(self.grid)
        data = np.column_stack([
            self.grid,
            self.w.reshape(m, n * n),
            self.z.reshape(m, n * n),
            self.w_row,
            self.z_row,
            self.u,
        ])
        with open(path, "w") as fh:
            fh.write(f"# q={self.q:.12g} states={n}\n")
            fh.write(",".join(cols) + "\n")
            for row in data:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
