"""Negative jump laws with rational Laplace transforms.

A law describes a random variable U <= 0 whose magnitude is Erlang,
exponential (Erlang with shape 1), or a finite mixture of Erlangs.  The
transform G(z) = E[exp(z U)] is then rational in z with all poles on the
negative real axis, and each component is a run of exponential stages,
which is how the spectral scale-matrix backend embeds the jump as phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelShapeMismatch

__all__ = ["JumpLaw", "NONE_LAW"]


@dataclass(frozen=True)
class JumpLaw:
    """Distribution of a nonpositive jump.

    Parameters
    ----------
    components : tuple of (weight, shape, rate)
        Mixture components; the magnitude of a draw is Erlang(shape, rate)
        with probability weight.  Empty tuple means U = 0 a.s.
    """

    components: tuple = field(default=())

    def __post_init__(self):
        comps = []
        for w, k, mu in self.components:
            if not (0 < w < np.inf and 1 <= k < np.inf and k % 1 == 0 and 0 < mu < np.inf):
                raise ModelShapeMismatch(
                    "mixture components need finite w>0, integral shape>=1, rate>0")
            comps.append((float(w), int(k), float(mu)))
        total = sum(w for w, _, _ in comps)
        if comps and abs(total - 1.0) > 1e-12:
            comps = [(w / total, k, mu) for w, k, mu in comps]
        object.__setattr__(self, "components", tuple(comps))

    # --- constructors -------------------------------------------------

    @staticmethod
    def none() -> "JumpLaw":
        return NONE_LAW

    @staticmethod
    def exponential(rate) -> "JumpLaw":
        return JumpLaw(((1.0, 1, float(rate)),))

    @staticmethod
    def erlang(shape, rate) -> "JumpLaw":
        return JumpLaw(((1.0, shape, float(rate)),))

    @staticmethod
    def mixture(parts) -> "JumpLaw":
        """parts: iterable of (weight, shape, rate)."""
        return JumpLaw(tuple(parts))

    # --- basic queries ------------------------------------------------

    @property
    def is_none(self) -> bool:
        return not self.components

    def poles(self):
        """Transform poles as a list of (location -mu, multiplicity)."""
        out = {}
        for _, k, mu in self.components:
            out[-mu] = max(out.get(-mu, 0), k)
        return sorted(out.items())

    def mean(self) -> float:
        """E[U] (nonpositive)."""
        return -sum(w * k / mu for w, k, mu in self.components)

    # --- transform ----------------------------------------------------

    def transform(self, z):
        """G(z) = E[exp(z U)] = sum_m w_m (mu_m / (mu_m + z))^k_m."""
        if not self.components:
            return np.ones_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 1.0 + 0j
        return sum(w * (mu / (mu + z)) ** k for w, k, mu in self.components)

    # --- density / tails (magnitude parameterization) -----------------

    def density_mag(self, u):
        """Density of |U| at u > 0."""
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for w, k, mu in self.components:
            out = out + w * mu ** k * u ** (k - 1) * np.exp(-mu * u) / _factorial(k - 1)
        return out

    def survival_mag(self, u):
        """P(|U| > u) for u >= 0."""
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for w, k, mu in self.components:
            acc = np.zeros_like(u)
            term = np.ones_like(u)
            for m in range(k):
                if m:
                    term = term * (mu * u) / m
                acc = acc + term
            out = out + w * np.exp(-mu * u) * acc
        return out

    # --- sampling (uniform-draw protocol) ------------------------------

    @property
    def n_pick_uniforms(self) -> int:
        """Uniforms consumed choosing the mixture component (0 or 1)."""
        return 1 if len(self.components) > 1 else 0

    def sample_mag(self, uniforms_pick, uniforms_exp):
        """Draw magnitudes from stacked uniform columns.

        uniforms_pick : (n,) or None - component choice when mixed.
        uniforms_exp : (n, k_max) - unit-exponential sources, column m used
        by components with shape > m.  Consumption is fixed per law.
        """
        if not self.components:
            return np.zeros(len(uniforms_exp))
        exp = -np.log1p(-uniforms_exp)
        if len(self.components) == 1:
            _, k, mu = self.components[0]
            return exp[:, :k].sum(axis=1) / mu
        edges = np.cumsum([w for w, _, _ in self.components])
        idx = np.searchsorted(edges, uniforms_pick, side="right")
        idx = np.minimum(idx, len(self.components) - 1)
        shapes = np.array([k for _, k, _ in self.components])
        rates = np.array([mu for _, _, mu in self.components])
        k_sel = shapes[idx]
        mask = np.arange(exp.shape[1])[None, :] < k_sel[:, None]
        return (exp * mask).sum(axis=1) / rates[idx]

    @property
    def k_max(self) -> int:
        return max((k for _, k, _ in self.components), default=0)


def _factorial(n: int) -> float:
    out = 1.0
    for m in range(2, n + 1):
        out *= m
    return out


NONE_LAW = JumpLaw(())
