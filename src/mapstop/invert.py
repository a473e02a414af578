"""Contour-based numerical inversion of the scale-matrix transform.

Independent oracle backend: evaluates W^(q)(x) by a fixed-contour
(Talbot-type) quadrature of the Bromwich integral of (Psi(beta) - qI)^{-1}
in extended precision.  Everything here re-derives the transform entries
from the raw model parameters through mpmath, so no code is shared with
the spectral backend beyond the model container itself.
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


def _mp_transform(law, s):
    """Jump transform G(s) = sum w (mu/(mu+s))^k in mpmath arithmetic."""
    if law.is_none:
        return mp.mpf(1)
    tot = mp.mpf(0)
    for w, k, mu in law.components:
        tot += mp.mpf(w) * (mp.mpf(mu) / (mp.mpf(mu) + s)) ** k
    return tot


def _mp_resolvent(model: MapModel, q, s):
    """(Psi(s) - q I)^{-1} as an mpmath matrix."""
    n = model.n_states
    A = mp.zeros(n, n)
    for i in range(n):
        c = model.components[i]
        val = mp.mpf(c.drift) * s + mp.mpf(c.sigma2) / 2 * s * s
        for r, law in c.jumps:
            val += mp.mpf(r) * (_mp_transform(law, s) - 1)
        A[i, i] = val + mp.mpf(model.q_matrix[i, i]) - q
        for j in range(n):
            if i != j and model.q_matrix[i, j] != 0.0:
                A[i, j] = mp.mpf(model.q_matrix[i, j]) * _mp_transform(
                    model.switch_jumps[i][j], s
                )
    return A**-1


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


def _talbot_sum(model, q_mp, x_mp, M, r, shift):
    n = model.n_states
    total = mp.zeros(n, n)
    F = _mp_resolvent(model, q_mp, r + shift)
    grow = mp.e ** (r * x_mp)
    for i in range(n):
        for j in range(n):
            total[i, j] += mp.mpf("0.5") * F[i, j] * grow
    for k in range(1, M):
        th = mp.pi * k / M
        cot = mp.cot(th)
        s = r * th * (cot + 1j)
        sig = th + (th * cot - 1) * cot
        F = _mp_resolvent(model, q_mp, s + shift)
        w = mp.e ** (x_mp * s) * (1 + 1j * sig)
        for i in range(n):
            for j in range(n):
                total[i, j] += (w * F[i, j]).real
    lead = mp.e ** (shift * x_mp) * r / M
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = float(total[i, j] * lead)
    return out


def talbot_invert(model: MapModel, q: float, x: float):
    """W^(q)(x) by extended-precision contour quadrature, x > 0.

    The contour is shifted right of every real transform singularity (the
    shift comes from a dominance scan, not from the spectral roots) and
    the node count grows linearly in x so the contour's real-axis crossing
    keeps a fixed margin.  Two node counts are compared; a discrepancy
    beyond 1e-5 (relative) raises InversionUnstable, and x <= 0 raises
    ValidationError.
    """
    x = float(x)
    if x <= 0:
        raise ValidationError("contour inversion needs x > 0")
    q = float(q)
    phi_q = _phi(model, q)
    ceiling = _real_root_ceiling(model, q, phi_q)
    M = max(_M_BASE, int(math.ceil(24 * x)))
    old_dps = mp.mp.dps
    mp.mp.dps = _DPS
    try:
        q_mp = mp.mpf(q)
        x_mp = mp.mpf(x)
        shift = mp.mpf(max(phi_q + 1.0, ceiling - 5.0))
        res = []
        for m_nodes in (M, M + 16):
            r = mp.mpf(2 * m_nodes) / (5 * x_mp)
            if float(shift + r) <= ceiling + 0.5:
                r = mp.mpf(ceiling + 1.0) - shift
            res.append(_talbot_sum(model, q_mp, x_mp, m_nodes, r, shift))
    finally:
        mp.mp.dps = old_dps
    scale = 1.0 + np.abs(res[1]).max()
    est = np.abs(res[1] - res[0]).max() / scale
    if est > _EST_TOL:
        raise InversionUnstable(
            f"contour self-estimate {est:.2e} exceeds {_EST_TOL:.0e} at x={x}"
        )
    return res[1]
