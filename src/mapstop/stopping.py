"""Optimal stopping of the discounted running maximum.

Solves sup_tau E[e^{-q tau} f(Xbar_tau, Jbar_tau)] for gains driven by
the running maximum of the additive component.  For the exponential gain
f(s, j) = e^s h_j the drawdown boundary is constant per state and solves
u_j(x) = [Z^(q) 1]_j(x) - q [W^(q) 1]_j(x) <= 0 minimally.  The capped
gain (e^{min(s, eps)} - K)^+ h_j leads to a per-state first-order
boundary equation integrated here by Runge-Kutta with exact
scale-function row sums.

The boundary in force is c_{Jbar}, where Jbar is the state in which the
running maximum was last set; Jbar resets at every new maximum.
StopSolution.value is the exact value of that rule: a linear system for
the value at the maximum in each state, then the two-sided exit identity
below it.  The single-state formula e^s Z(x - s + c) (Avram, Kyprianou
and Pistorius 2004) holds c fixed for the whole future and agrees with it
only when all c_j are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundaryMissing,
    InvalidSolution,
    Unbounded,
    ValidationError,
)
from .fluctuation import _two_sided
from .model import MapModel, kappa
from .scale import (
    STEP_DEFAULT,
    X_MAX_DEFAULT,
    SpectralRep,
    _first_crossing,
    _grid,
    _spectral_sum,
    a_threshold,
    eval_w,
    eval_w_one,
    eval_z_one,
    spectral_decompose,
    w_zero_plus,
)

__all__ = [
    "GainSpec",
    "StopSolution",
    "StateSolution",
    "BoundaryCurve",
    "u_fn",
    "solve_shepp",
    "solve_boundary_ode",
    "ZERO_BOUNDARY",
    "INTERIOR_ROOT",
    "NO_ROOT_ON_RANGE",
]

ZERO_BOUNDARY = "ZeroBoundary"
INTERIOR_ROOT = "InteriorRoot"
NO_ROOT_ON_RANGE = "NoRootOnRange"

DIV_FLOOR = 1e-10


# --- gain functions ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class GainSpec:
    """Gain f(s, j) on the running maximum and its modulator state.

    One of two kinds, built by GainSpec.shepp or GainSpec.capped:

    kind 'shepp':  f = e^s h_j  (f'/f = 1, defined for all s)
    kind 'capped': f = (e^{min(s, eps)} - K)^+ h_j, valid for s > log K
    """

    kind: str
    h: np.ndarray = None
    cap: float = None
    eps: float = None

    @staticmethod
    def shepp(h) -> "GainSpec":
        h = np.asarray(h, dtype=float)
        if not ((0 < h) & (h < np.inf)).all():
            raise ValidationError("gain weights must be finite and positive")
        return GainSpec(kind="shepp", h=h)

    @staticmethod
    def capped(h, cap, eps) -> "GainSpec":
        h = np.asarray(h, dtype=float)
        if not ((0 < h) & (h < np.inf)).all():
            raise ValidationError("gain weights must be finite and positive")
        cap = float(cap)
        eps = float(eps)
        if not (0 < cap < math.inf and math.log(cap) < eps < math.inf):
            raise ValidationError("capped gain needs finite K > 0 and eps > log K")
        return GainSpec(kind="capped", h=h, cap=cap, eps=eps)

    @property
    def s_min(self):
        """Left end of the domain where f > 0."""
        if self.kind == "capped":
            return math.log(self.cap)
        return -math.inf

    def f(self, s, j):
        """f(s, j); s and j may be scalars or arrays of one shape."""
        if self.kind == "shepp":
            return np.exp(s) * self.h[j]
        return np.maximum(np.exp(np.minimum(s, self.eps)) - self.cap,
                          0.0) * self.h[j]

    def f_prime(self, s, j):
        if self.kind == "capped" and (s >= self.eps or s <= math.log(self.cap)):
            return 0.0
        return np.exp(s) * self.h[j]


# --- constant-boundary solver ------------------------------------------


def u_fn(rep: SpectralRep, j: int, x: float) -> float:
    """u_j(x) = [Z^(q)(x) 1]_j - q [W^(q)(x) 1]_j."""
    return float(eval_z_one(rep, x)[j] - rep.q * eval_w_one(rep, x)[j])


@dataclass(frozen=True)
class StateSolution:
    state: int
    regime: str
    c: float            # boundary, nan when no root was found on the range
    a: float            # threshold a(j), may be math.inf

    @property
    def has_boundary(self):
        return self.regime in (ZERO_BOUNDARY, INTERIOR_ROOT)


@dataclass(frozen=True, eq=False)
class StopSolution:
    """Per-state constant drawdown boundaries and their diagnostics."""

    q: float
    gain: GainSpec
    states: tuple
    rep: SpectralRep
    kappa1: float

    def boundary(self, j) -> float:
        st = self.states[j]
        if not st.has_boundary:
            raise BoundaryMissing(
                f"state {j + 1} has no boundary on the scanned range ({st.regime})"
            )
        return st.c

    @cached_property
    def _peak_values(self) -> np.ndarray:
        """m_j: value per unit e^s at a running maximum set in state j.

        One step ds of the maximum from state j exits [s - c_j, s + ds]
        upwards with the discounted arrival-state law given by row j of
        W(c_j) W(c_j + ds)^{-1} = I - A ds, A = W'(c_j) W(c_j)^{-1}, and
        stops otherwise.  With Z' = W (q I - Q) and Q 1 = 0 the first-order
        balance is m_j - A_j m = -h_j (A_j Z(c_j) 1 - q [W(c_j) 1]_j);
        a zero boundary stops at once, m_j = h_j.
        """
        rep = self.rep
        h = self.gain.h
        c = np.array([self.boundary(j) for j in range(len(self.states))])
        w = eval_w(rep, c)
        w_prime = _spectral_sum(rep, c, 1, rows=False)
        z_one = eval_z_one(rep, c)
        lhs = np.eye(len(c))
        rhs = h.copy()
        for j in np.flatnonzero(c > 0):
            a_j = np.linalg.solve(w[j].T, w_prime[j, j])
            lhs[j] -= a_j
            rhs[j] = -h[j] * (a_j @ z_one[j] - self.q * w[j, j].sum())
        return np.linalg.solve(lhs, rhs)

    def value(self, x, s, i, j) -> float:
        """Value of stopping once the drawdown s - x reaches c_{Jbar}.

        (x, s, i, j): position, running maximum, current state, and the
        state Jbar = j in which the maximum was last set.  With
        y = x - s + c_j > 0 the two-sided exit from [s - c_j, s] gives

            V = e^s ( [up m]_i + h_j [down 1]_i ),

        up = W(y) W(c_j)^{-1}, down = Z(y) - up Z(c_j), m the values at the maximum
        (see _peak_values); f(s, j) for y <= 0.  Raises BoundaryMissing unless every
        state has a boundary, and ValidationError when x > s.
        """
        x = float(x)
        s = float(s)
        if x > s + 1e-12:
            raise ValidationError("requires x <= s")
        m = self._peak_values
        c = self.states[j].c
        y = c + min(x - s, 0.0)
        if y <= 0:
            return float(self.gain.f(s, j))
        up, down = _two_sided(self.rep, y, c)
        return math.exp(s) * float(up[i] @ m + self.gain.h[j] * down[i].sum())


def solve_shepp(model: MapModel, q: float, h=None,
                x_max: float = X_MAX_DEFAULT) -> StopSolution:
    """Constant boundaries c_j for the exponential maximum gain e^s h_j.

    The problem value is infinite unless q > kappa(1) (raises Unbounded
    otherwise).  Per state: c_j = 0 when [W 1]_j(0+) >= 1/q; otherwise the
    first sign change of u_j on the 1e-3 grid is refined by bisection; no sign
    change up to x_max is reported as the NoRootOnRange regime.  Raises
    InvalidSolution when a located boundary exceeds the threshold a(j), and
    ValidationError unless 1e-3 <= x_max.
    """
    q = float(q)
    h = np.ones(model.n_states) if h is None else np.asarray(h, dtype=float)
    if h.shape != (model.n_states,):
        raise ValidationError("gain weight vector has the wrong length")
    gain = GainSpec.shepp(h)
    k1 = kappa(model, 1.0)
    if q <= k1:
        raise Unbounded(
            f"q = {q} <= kappa(1) = {k1:.6g}: the stopping value is infinite"
        )
    rep = spectral_decompose(model, q)
    grid = _grid(x_max, STEP_DEFAULT)
    u = eval_z_one(rep, grid) - q * eval_w_one(rep, grid)
    w0 = np.diag(w_zero_plus(model, q))
    states = []
    for j in range(model.n_states):
        a_j = a_threshold(rep, j, x_max=x_max)
        if w0[j] >= 1.0 / q:
            states.append(StateSolution(j, ZERO_BOUNDARY, 0.0, a_j))
            continue
        c_j = _first_crossing(grid, u[:, j] <= 0.0,
                              lambda x: u_fn(rep, j, x) <= 0.0)
        if c_j is None:
            states.append(StateSolution(j, NO_ROOT_ON_RANGE, math.nan, a_j))
            continue
        if c_j > a_j + 1e-10:
            raise InvalidSolution(
                f"state {j + 1}: boundary c = {c_j:.6g} exceeds a(j) = {a_j:.6g}"
            )
        states.append(StateSolution(j, INTERIOR_ROOT, c_j, a_j))
    return StopSolution(q=q, gain=gain, states=tuple(states), rep=rep, kappa1=k1)


# --- general boundary curves -------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundaryCurve:
    """One state's integrated drawdown boundary g(s, j)."""

    state: int
    s: np.ndarray
    g: np.ndarray
    violations: tuple   # (s, code, detail) records
    stiff: bool
    completed: bool


class _Abort(Exception):
    def __init__(self, code, message):
        self.code = code
        self.message = message
        super().__init__(message)


def solve_boundary_ode(model: MapModel, q: float, gain: GainSpec, s_range,
                       init, step: float = 1e-3):
    """Integrate g'(s,j) = 1 - (f'/f) [Z 1]_j(g) / (q [W 1]_j(g)) per state.

    Fourth-order Runge-Kutta on a uniform s-grid; the row sums [W 1]_j(g)
    and [Z 1]_j(g) are evaluated exactly (eval_w_one, eval_z_one) for g in
    [0, 5].  Every accepted step is checked against the weaker sufficient
    inequality for the stopped supermartingale property (the slope may not
    exceed the larger right-hand side at the step's two grid points; the
    one at the next point is the next step's first RK stage) and against
    g <= a(j); violations are recorded on the curve with their (s, code,
    detail).  A step that leaves [0, 5] (BlowUp) or divides by
    q [W 1]_j(g) < 1e-10 (DivisionNearZero) ends the curve early.  Stiff
    right-hand sides engage sub-steps and flag the curve.  Returns a tuple
    of BoundaryCurve.
    """
    q = float(q)
    s0, s1 = float(s_range[0]), float(s_range[1])
    if not -math.inf < s0 < s1 < math.inf:
        raise ValidationError("s-range must be finite and nonempty")
    if not 0 < step <= s1 - s0:
        raise ValidationError("step must lie in (0, s1 - s0]")
    if s0 <= gain.s_min:
        raise ValidationError("s-range starts where the gain vanishes")
    init = np.asarray(init, dtype=float)
    if init.shape != (model.n_states,):
        raise ValidationError("one initial boundary value per state required")
    rep = spectral_decompose(model, q)
    n_steps = int(round((s1 - s0) / step))
    s_vals = s0 + step * np.arange(n_steps + 1)
    curves = []
    for j in range(model.n_states):
        a_j = a_threshold(rep, j)
        violations = []
        stiff = False

        def rhs(s, g, j=j):
            if g > X_MAX_DEFAULT:
                raise _Abort("BlowUp", f"g = {g:.6g} beyond x_max = {X_MAX_DEFAULT:g}")
            denom = q * float(eval_w_one(rep, g)[j])
            if denom < DIV_FLOOR:
                raise _Abort(
                    "DivisionNearZero", f"q [W 1]_j(g) = {denom:.3e} at g = {g:.6g}"
                )
            z1 = float(eval_z_one(rep, g)[j])
            return 1.0 - gain.f_prime(s, j) / gain.f(s, j) * z1 / denom

        g = float(init[j])
        g_path = [g]
        completed = True
        slope0 = None
        for k in range(n_steps):
            s = s_vals[k]
            try:
                if slope0 is None:
                    slope0 = rhs(s, g)
                n_sub = int(min(1000, max(1, math.ceil(abs(slope0) * step / 5e-4))))
                if n_sub > 1:
                    stiff = True
                hsub = step / n_sub
                g_new = g
                for m in range(n_sub):
                    sm = s + m * hsub
                    k1 = slope0 if m == 0 else rhs(sm, g_new)
                    k2 = rhs(sm + 0.5 * hsub, g_new + 0.5 * hsub * k1)
                    k3 = rhs(sm + 0.5 * hsub, g_new + 0.5 * hsub * k2)
                    k4 = rhs(sm + hsub, g_new + hsub * k3)
                    g_new = g_new + hsub / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
                if g_new < 0 or g_new > X_MAX_DEFAULT:
                    raise _Abort("BlowUp", f"g = {g_new:.6g} left [0, x_max]")
            except _Abort as ab:
                violations.append((float(s), ab.code, ab.message))
                completed = False
                break
            slope = (g_new - g) / step
            try:
                slope1 = rhs(s_vals[k + 1], g_new)
                bound = max(slope0, slope1)
                if slope > bound + 1e-7 * (1.0 + abs(bound)):
                    msg = f"slope {slope:.6g} exceeds the admissible bound {bound:.6g}"
                    violations.append((float(s), "WeakInequality", msg))
            except _Abort:
                slope1 = None
            if g_new > a_j + 1e-10:
                msg = f"g = {g_new:.6g} exceeds a(j) = {a_j:.6g}"
                violations.append((float(s + step), "ConstraintViolation", msg))
            g = g_new
            g_path.append(g)
            slope0 = slope1
        curves.append(BoundaryCurve(
            state=j,
            s=s_vals[: len(g_path)],
            g=np.array(g_path),
            violations=tuple(violations),
            stiff=stiff,
            completed=completed,
        ))
    return tuple(curves)
