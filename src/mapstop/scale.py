"""Scale matrices W^(q) and Z^(q) of a spectrally negative MAP.

W^(q) is defined through its matrix Laplace transform

    integral_0^inf e^{-beta x} W^(q)(x) dx = (Psi(beta) - q I)^{-1},

valid for beta with real part beyond every singularity.  Because all jump
transforms in this package are rational, the right-hand side is a rational
matrix in beta; clearing denominators row by row turns det(Psi(z) - q I)
into a polynomial whose roots zeta_k drive the explicit inversion

    W^(q)(x) = sum_k R_k e^{zeta_k x},   x >= 0,

with residue matrices R_k.  Z^(q) follows by integration,

    Z^(q)(x) = I + (sum_k R_k (e^{zeta_k x} - 1)/zeta_k)(q I - Q).

One kernel evaluates every such sum (W, Z, their row sums and the
x-derivatives); it raises BlowUp when e^{zeta_k x} overflows.  Phi(q) is
the smallest positive real root; spectral_decompose raises EigenFailure
when the Perron root kappa does not cross q there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

from .errors import (
    BlowUp,
    DegenerateRoots,
    EigenFailure,
    ModelShapeMismatch,
    RootCountMismatch,
    ValidationError,
)
from .model import MapModel, big_psi, big_psi_deriv, kappa

__all__ = [
    "SpectralRep",
    "ScaleTable",
    "spectral_decompose",
    "eval_w",
    "eval_z",
    "eval_z_prime",
    "eval_w_one",
    "eval_z_one",
    "eval_w_one_deriv",
    "w_zero_plus",
    "wiener_closed_form",
    "a_threshold",
]

ROOT_SEP_TOL = 1e-7
SPURIOUS_TOL = 1e-6
IMAG_GUARD = 1e-6
X_MAX_DEFAULT = 5.0
STEP_DEFAULT = 1e-3


# --- rational-entry bookkeeping ---------------------------------------
#
# An entry of A(z) = Psi(z) - q I is held as (poly, factors): the rational
# function poly(z) / prod (z + mu)^mult.  Factor lists are merged with a
# small tolerance so equal rates coming from different laws share a pole.


def _merge_factor(bag, mu, mult):
    for f in bag:
        if abs(f[0] - mu) <= 1e-9 * (1.0 + abs(mu)):
            f[1] = max(f[1], mult)
            return
    bag.append([mu, mult])


def _factor_poly(factors):
    p = Polynomial([1.0])
    for mu, mult in factors:
        p = p * Polynomial([mu, 1.0]) ** int(mult)
    return p


def _complement_poly(common, factors):
    """Polynomial prod over common of (z+mu)^(mult - mult_in_factors)."""
    p = Polynomial([1.0])
    for mu, mult in common:
        have = 0
        for mu2, m2 in factors:
            if abs(mu2 - mu) <= 1e-9 * (1.0 + abs(mu)):
                have = m2
                break
        if mult - have:
            p = p * Polynomial([mu, 1.0]) ** (mult - have)
    return p


def _rat_add(a, b):
    p1, f1 = a
    p2, f2 = b
    bag = [list(f) for f in f1]
    for mu, m in f2:
        _merge_factor(bag, mu, m)
    common = tuple((mu, m) for mu, m in bag)
    return (
        p1 * _complement_poly(common, f1) + p2 * _complement_poly(common, f2),
        common,
    )


def _entry_rational(model: MapModel, q: float, i: int, j: int):
    if i == j:
        comp = model.components[i]
        rat = (
            Polynomial([model.q_matrix[i, i] - q, comp.drift, 0.5 * comp.sigma2]),
            (),
        )
        for r, law in comp.jumps:
            num, factors = law.rational()
            den = _factor_poly(factors)
            rat = _rat_add(rat, ((num - den) * r, factors))
        return rat
    qij = model.q_matrix[i, j]
    if qij == 0.0:
        return Polynomial([0.0]), ()
    num, factors = model.switch_jumps[i][j].rational()
    return num * qij, factors


def _poly_det(mat):
    """Determinant of a square matrix of Polynomials, memoized expansion."""
    n = len(mat)
    memo = {}

    def det(cols):
        r = n - len(cols)
        if not cols:
            return Polynomial([1.0])
        if cols in memo:
            return memo[cols]
        out = Polynomial([0.0])
        for idx, c in enumerate(cols):
            sub = det(cols[:idx] + cols[idx + 1:])
            term = mat[r][c] * sub
            out = out + term if idx % 2 == 0 else out - term
        memo[cols] = out
        return out

    return det(tuple(range(n)))


def _adjugate(M):
    n = M.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=M.dtype)
    adj = np.empty_like(M)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(M, i, axis=0), j, axis=1)
            adj[j, i] = (-1) ** (i + j) * np.linalg.det(minor)
    return adj


# --- spectral representation ------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectralRep:
    """Partial-fraction data of (Psi(beta) - q I)^{-1}.

    roots : complex (K,) simple roots zeta_k of det(Psi(z) - q I) = 0,
        sorted by descending real part.  Exactly N of them have positive
        real part (asserted at construction).
    residues : complex (K, N, N), R_k = lim (beta - zeta_k)(Psi - q)^{-1}.
    phi_q : the positive real root equal to the Perron right inverse.
    q_matrix : modulator rate matrix, kept for Z^(q).
    """

    q: float
    roots: np.ndarray
    residues: np.ndarray
    phi_q: float
    q_matrix: np.ndarray

    @property
    def n_states(self) -> int:
        return self.q_matrix.shape[0]

    @property
    def root_sums(self):
        """Row sums R_k 1 as a (K, N) array."""
        return self.residues.sum(axis=2)


def spectral_decompose(model: MapModel, q: float) -> SpectralRep:
    """Locate the transform poles in beta and their residue matrices.

    The determinant of A(z) = Psi(z) - q I is expanded exactly after
    clearing each row's rational denominators, so the roots come from a
    single companion-matrix eigenproblem plus a Newton polish.  Residues
    use the cofactor identity R = adj(A) / tr(adj(A) A') at each root.

    phi_q is the smallest positive real root: any other positive real zero
    z has kappa(z) > q, so it lies above Phi(q).  Two Perron roots confirm
    it, kappa(phi_q - eps) <= q < kappa(phi_q + eps) with
    eps = 1e-9 (1 + phi_q); EigenFailure is raised otherwise, or when no
    positive real root exists.

    Raises DegenerateRoots when two roots come closer than 1e-7 (perturb q
    slightly in that case) and RootCountMismatch when the number of roots
    with positive real part is not N.
    """
    q = float(q)
    if q <= 0:
        raise ValidationError("spectral decomposition requires q > 0")
    n = model.n_states
    rows = [[_entry_rational(model, q, i, j) for j in range(n)] for i in range(n)]
    cleared = []
    for i in range(n):
        bag = []
        for _, f in rows[i]:
            for mu, m in f:
                _merge_factor(bag, mu, m)
        common = tuple((mu, m) for mu, m in bag)
        cleared.append(
            [rows[i][j][0] * _complement_poly(common, rows[i][j][1]) for j in range(n)]
        )
    p = _poly_det(cleared)
    coef = p.coef
    scale = np.abs(coef).max()
    p = Polynomial(np.where(np.abs(coef) > 1e-13 * scale, coef, 0.0)).trim(1e-13 * scale)
    if p.degree() < 1:
        raise RootCountMismatch("determinant polynomial is constant")
    dp = p.deriv()
    raw = p.roots()
    polished = []
    for z in raw:
        for _ in range(3):
            d = dp(z)
            if d == 0:
                break
            z = z - p(z) / d
        polished.append(z)
    pole_locs = model.transform_poles()
    roots = [
        z
        for z in polished
        if not any(abs(z - loc) <= SPURIOUS_TOL * (1.0 + abs(loc)) for loc in pole_locs)
    ]
    roots = np.array(sorted(roots, key=lambda z: (-z.real, z.imag)), dtype=complex)
    # snap numerically-real roots so their residues stay exactly real
    real_mask = np.abs(roots.imag) <= 1e-10 * (1.0 + np.abs(roots))
    roots = np.where(real_mask, roots.real + 0j, roots)
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            if abs(roots[a] - roots[b]) < ROOT_SEP_TOL:
                raise DegenerateRoots(
                    f"roots {roots[a]} and {roots[b]} are closer than {ROOT_SEP_TOL}; "
                    "perturb q by ~1e-6 and rerun"
                )
    n_pos = int((roots.real > 0).sum())
    if n_pos != n:
        raise RootCountMismatch(
            f"{n_pos} roots with positive real part, expected {n}"
        )
    residues = np.empty((len(roots), n, n), dtype=complex)
    for k, z in enumerate(roots):
        A = big_psi(model, z) - q * np.eye(n)
        adj = _adjugate(A)
        denom = np.trace(adj @ big_psi_deriv(model, z))
        if denom == 0:
            raise DegenerateRoots(f"vanishing residue denominator at root {z}")
        R = adj / denom
        if real_mask[k]:
            R = R.real + 0j
        residues[k] = R
    cand = roots.real[real_mask & (roots.real > 0)]
    if not cand.size:
        raise EigenFailure("no positive real root to match the Perron inverse")
    phi_q = float(cand.min())
    eps = 1e-9 * (1.0 + phi_q)
    if not kappa(model, phi_q - eps) <= q < kappa(model, phi_q + eps):
        raise EigenFailure(
            f"kappa does not cross q = {q} at the smallest positive root {phi_q}"
        )
    return SpectralRep(
        q=q,
        roots=roots,
        residues=residues,
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


def _z_factor(rep: SpectralRep):
    return rep.q * np.eye(rep.n_states) - rep.q_matrix


def eval_w(rep: SpectralRep, x):
    """W^(q)(x): zero matrix for x < 0, sum_k R_k e^{zeta_k x} for x >= 0."""
    return _spectral_sum(rep, x, 0, rows=False)


def eval_z(rep: SpectralRep, x):
    """Z^(q)(x): identity for x <= 0, I + [sum_k R_k (e^{zeta_k x}-1)/zeta_k](qI-Q)."""
    z = _spectral_sum(rep, x, -1, rows=False, right=_z_factor(rep))
    return z + np.eye(rep.n_states)


def eval_z_prime(rep: SpectralRep, x):
    """d/dx Z^(q)(x) = W^(q)(x) (q I - Q) for x > 0 (zero for x < 0)."""
    return eval_w(rep, x) @ _z_factor(rep)


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
    the first grid step gives a(j) = 0.
    """
    grid = np.arange(0.0, x_max + 0.5 * step, step)
    vals = eval_z_one(rep, grid)[:, j] <= 1.0
    if vals[1:2].any():
        return 0.0
    a = _first_crossing(grid, vals, lambda x: eval_z_one(rep, x)[j] <= 1.0)
    return math.inf if a is None else a


# --- tabulation --------------------------------------------------------


class ScaleTable:
    """Uniform-grid tabulation of W, Z and their row sums.

    The row sums are interpolated by one cubic spline (the solver
    differentiates them); rows_at returns both.  Queries left of 0 return
    the defining extensions W = 0, Z = I.
    """

    def __init__(self, q, grid, w, z, w_row, z_row, u=None):
        self.q = float(q)
        self.grid = np.asarray(grid, dtype=float)
        self.w = np.asarray(w, dtype=float)
        self.z = np.asarray(z, dtype=float)
        self.w_row = np.asarray(w_row, dtype=float)
        self.z_row = np.asarray(z_row, dtype=float)
        # stored rather than derived so serialization stays canonical
        # despite the cancellation in z_row - q w_row
        self.u = (self.z_row - self.q * self.w_row if u is None
                  else np.asarray(u, dtype=float))
        self._rows_sp = CubicSpline(self.grid, np.hstack([self.w_row, self.z_row]),
                                    axis=0)

    @property
    def n_states(self):
        return self.w_row.shape[1]

    @property
    def x_max(self):
        return float(self.grid[-1])

    @classmethod
    def from_rep(cls, rep: SpectralRep, x_max: float = X_MAX_DEFAULT,
                 step: float = STEP_DEFAULT) -> "ScaleTable":
        grid = np.arange(0.0, x_max + 0.5 * step, step)
        w = eval_w(rep, grid)
        z = eval_z(rep, grid)
        return cls(rep.q, grid, w, z, w.sum(axis=2), z.sum(axis=2))

    # interpolating query --------------------------------------------------

    def rows_at(self, x):
        """([W 1](x), [Z 1](x)) from one spline call; ValueError beyond x_max."""
        x = np.asarray(x, dtype=float)
        if np.any(x > self.x_max + 1e-12):
            raise ValueError("query beyond the tabulated range")
        n = self.n_states
        out = self._rows_sp(np.clip(x, 0.0, self.x_max))
        out = np.where((x < 0)[..., None], np.repeat([0.0, 1.0], n), out)
        return out[..., :n], out[..., n:]

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

    @classmethod
    def from_csv(cls, path) -> "ScaleTable":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# q="):
                raise ValueError("missing scale-table header")
            fields = dict(
                part.split("=") for part in header[2:].split() if "=" in part
            )
            q = float(fields["q"])
            n = int(fields["states"])
            fh.readline()
            data = np.loadtxt(fh, delimiter=",")
        m = data.shape[0]
        grid = data[:, 0]
        w = data[:, 1:1 + n * n].reshape(m, n, n)
        z = data[:, 1 + n * n:1 + 2 * n * n].reshape(m, n, n)
        base = 1 + 2 * n * n
        w_row = data[:, base:base + n]
        z_row = data[:, base + n:base + 2 * n]
        u = data[:, base + 2 * n:base + 3 * n] if data.shape[1] >= base + 3 * n \
            else None
        return cls(q, grid, w, z, w_row, z_row, u)
