"""Contour-based numerical inversion of the scale-matrix transform.

Independent oracle backend: evaluates W^(q)(x) by a fixed-contour
(Talbot-type) quadrature of the Bromwich integral of (Psi(beta) - qI)^{-1}
in extended precision.  Everything here re-derives the transform entries
from the raw model parameters through mpmath, so no code is shared with
the spectral backend beyond the model container itself.

The parameters are read into mpf once per call, and at each contour node
the resolvent is solved by Gauss-Jordan elimination on lists of mpc with
mpmath's 10 guard bits.  The working precision is 30 digits up to x = 2,
where the node count M = max(48, ceil(24 x)) leaves its base.  Beyond, the
theta = 0 node carries e^{(r + shift) x} with r x = 0.4 M, so the digits
grow by (0.4 (M - 48) + shift (x - 2)) / ln 10.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from .errors import InversionUnstable, ValidationError
from .model import MapModel
from .model import phi as _phi

__all__ = ["talbot_invert"]

_DPS = 30
_M_BASE = 48
_EST_TOL = 1e-5


def _mp_law(law):
    """A jump law's mixture as (w, k, mu) triples with w and mu in mpf."""
    return [(mp.mpf(w), k, mp.mpf(mu)) for w, k, mu in law.components]


def _mp_transform(law, s):
    """Jump transform G(s) = sum w (mu/(mu+s))^k of _mp_law triples; 1 if none."""
    if not law:
        return mp.mpf(1)
    tot = mp.mpf(0)
    for w, k, mu in law:
        tot += w * (mu / (mu + s)) ** k
    return tot


def _mp_inverse(a):
    """Inverse of a square list of lists of mpf/mpc, overwriting it.

    Gauss-Jordan elimination with partial pivoting at mpmath's 10 guard
    bits (those of mp.inverse).  A pivot with |p| <= ||A||_1 eps, the
    singularity test of mp.inverse, raises InversionUnstable.
    """
    n = len(a)
    with mp.mp.extraprec(10):
        tol = max(mp.fsum((row[j] for row in a), absolute=True) for j in range(n)) * mp.eps
        swaps = []
        for j in range(n):
            size, p = max((abs(a[i][j]), i) for i in range(j, n))
            if size <= tol:
                raise InversionUnstable("resolvent is numerically singular at a contour node")
            if p != j:
                a[j], a[p] = a[p], a[j]
                swaps.append((j, p))
            rj = a[j]
            piv = 1 / rj[j]
            rj[j] = 1
            rj[:] = [v * piv for v in rj]
            for i, ri in enumerate(a):
                if i != j:
                    f = ri[j]
                    ri[j] = 0
                    ri[:] = [v - f * u for v, u in zip(ri, rj)]
        for j, p in reversed(swaps):
            for row in a:
                row[j], row[p] = row[p], row[j]
    return a


def _mp_resolvent(model: MapModel, q):
    """s -> (Psi(s) - q I)^{-1} as a list of lists, the model read into mpf once."""
    n = model.n_states
    zero = mp.mpf(0)
    rows = []
    for i, c in enumerate(model.components):
        jumps = [(mp.mpf(r), _mp_law(law)) for r, law in c.jumps]
        off = [(j, mp.mpf(model.q_matrix[i, j]), _mp_law(model.switch_jumps[i][j]))
               for j in range(n) if i != j and model.q_matrix[i, j] != 0.0]
        rows.append((mp.mpf(c.drift), mp.mpf(c.sigma2) / 2, jumps,
                     mp.mpf(model.q_matrix[i, i]), off))

    def resolvent(s):
        A = []
        for i, (drift, half_s2, jumps, q_ii, off) in enumerate(rows):
            val = drift * s + half_s2 * s * s
            for r, law in jumps:
                val += r * (_mp_transform(law, s) - 1)
            row = [zero] * n
            row[i] = val + q_ii - q
            for j, q_ij, law in off:
                row[j] = q_ij * _mp_transform(law, s)
            A.append(row)
        return _mp_inverse(A)

    return resolvent


def _real_root_ceiling(model: MapModel, q: float, phi_q: float) -> float:
    """A real t beyond every real singularity of the resolvent.

    Uses Gershgorin dominance of Psi(t): once every diagonal entry minus
    its off-diagonal row mass exceeds q, no eigenvalue of Psi(t) can equal
    q, so no real root of det(Psi(t) - qI) lies beyond.  The margin is
    scanned with geometric steps; the exponent growth makes dominance
    permanent once the quadratic or drift term takes over.
    """
    t = phi_q + 1.0
    while t < 1e6:
        m = math.inf
        for i, c in enumerate(model.components):
            lo = float(np.real(c.psi(t))) + model.q_matrix[i, i]
            for j in range(model.n_states):
                if i != j and model.q_matrix[i, j] != 0.0:
                    g = float(np.real(model.switch_jumps[i][j].transform(t)))
                    lo -= model.q_matrix[i, j] * g
            m = min(m, lo)
        if m > q:
            return t
        t *= 1.5
    return t


def _talbot_sum(resolvent, x_mp, M, r, shift):
    F = resolvent(r + shift)
    half_grow = mp.exp(r * x_mp) / 2
    total = [[f * half_grow for f in row] for row in F]
    for k in range(1, M):
        th = mp.pi * k / M
        cot = mp.cot(th)
        s = r * th * (cot + 1j)
        sig = th + (th * cot - 1) * cot
        F = resolvent(s + shift)
        w = mp.exp(x_mp * s) * (1 + 1j * sig)
        wr, wi = w.real, w.imag
        for row, frow in zip(total, F):
            row[:] = [t + (wr * f.real - wi * f.imag) for t, f in zip(row, frow)]
    lead = mp.exp(shift * x_mp) * r / M
    return np.array([[float(t * lead) for t in row] for row in total])


def talbot_invert(model: MapModel, q: float, x: float):
    """W^(q)(x) by extended-precision contour quadrature, x > 0.

    The contour is shifted right of every real transform singularity (the
    shift comes from a dominance scan, not from the spectral roots) and
    the node count grows linearly in x so the contour's real-axis crossing
    keeps a fixed margin.  Two node counts are compared; a discrepancy
    beyond 1e-5 (relative) raises InversionUnstable, as does a resolvent
    that is singular to working precision (at tiny x, where the nodes run
    far out: x = 1e-40 on ivanovs2).  An x that is not finite and > 0
    raises ValidationError.
    """
    x = float(x)
    if not 0 < x < math.inf:
        raise ValidationError("contour inversion needs a finite x > 0")
    q = float(q)
    phi_q = _phi(model, q)
    ceiling = _real_root_ceiling(model, q, phi_q)
    M = max(_M_BASE, int(math.ceil(24 * x)))
    shift = max(phi_q + 1.0, ceiling - 5.0)
    growth = 0.4 * (M - _M_BASE) + shift * max(0.0, x - _M_BASE / 24)
    with mp.workdps(_DPS + math.ceil(growth / math.log(10))):
        resolvent = _mp_resolvent(model, mp.mpf(q))
        x_mp = mp.mpf(x)
        shift = mp.mpf(shift)
        res = []
        for m_nodes in (M, M + 16):
            r = mp.mpf(2 * m_nodes) / (5 * x_mp)
            if float(shift + r) <= ceiling + 0.5:
                r = mp.mpf(ceiling + 1.0) - shift
            res.append(_talbot_sum(resolvent, x_mp, m_nodes, r, shift))
    scale = 1.0 + np.abs(res[1]).max()
    est = np.abs(res[1] - res[0]).max() / scale
    if est > _EST_TOL:
        raise InversionUnstable(
            f"contour self-estimate {est:.2e} exceeds {_EST_TOL:.0e} at x={x}"
        )
    return res[1]
