"""Monte Carlo oracle for the modulated additive process.

Paths are advanced in vectorized lockstep: exact exponential modulator
holding times, exact compound-Poisson jump times within a state, and an
Euler scheme on a dt grid for the Brownian part.  Barrier crossings are
read at grid resolution for diffusive states (the usual O(sqrt(dt))
one-sided bias) and by exact linear interpolation on drift-only segments.

Randomness protocol
-------------------
Path p started in state start_state draws from its own stream of numpy's
Philox4x64-10 (Salmon et al., SC'11) keyed [master_seed, (start_state << 40)
| p], so every path is a pure function of the seed, its start state and its
index, independent of batching.  The generator is counter-based, so one bit
generator per batch, re-keyed at each refill, reads every path's stream.
All draws are consumed as uniforms in a fixed chronological order per path:

  * entering a state (including at time 0): 2 uniforms (holding time,
    switch target), then 1 more when the state carries compound jumps
    (time to the first jump);
  * each Euler sub-step in a state with a Gaussian part: 1 uniform
    (the increment's normal via the inverse error function);
  * each compound jump: 1 uniform choosing the part when a state has
    several, then the chosen law's fixed budget (component pick when the
    law is a mixture, plus k_max unit-exponential uniforms);
  * each switch jump: the law's fixed budget, before the entry draws of
    the next state.

Aggregation uses an explicit pairwise reduction tree in path-index order,
so estimates are bitwise reproducible regardless of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri

from .errors import HorizonTooShort, ValidationError
from .model import MapModel, big_psi

__all__ = [
    "SimConfig",
    "PathEstimate",
    "sample_path",
    "estimate_exit",
    "estimate_stopped_gain",
    "verify_mgf",
]

_CHUNK = 256
_FREEZE = 1e-10
_RESOLVE = 1e-8


@dataclass(frozen=True)
class SimConfig:
    """Engine parameters; n_paths is per starting state."""

    dt: float = 1e-3
    horizon: float = 50.0
    n_paths: int = 1000
    master_seed: int = 20260822

    def __post_init__(self):
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if not self.horizon > 0:
            raise ValidationError("horizon must be positive")
        if self.n_paths < 100:
            raise ValidationError("need at least 100 paths")
        if not (0 <= int(self.master_seed) < 2**64):
            raise ValidationError("master_seed must fit in 64 bits")


@dataclass(frozen=True, eq=False)
class PathEstimate:
    """Monte Carlo estimate with entrywise standard errors.

    n_effective counts the paths whose functional resolved before the
    horizon (exited, stopped, or discounted to nothing).
    """

    value: np.ndarray
    std_error: np.ndarray
    n_effective: int


def _pairwise_sum(a):
    """Fixed-shape reduction tree over axis 0, independent of scheduling."""
    n = a.shape[0]
    if n <= 16:
        out = np.zeros(a.shape[1:], dtype=a.dtype)
        for row in a:
            out = out + row
        return out
    m = n // 2
    return _pairwise_sum(a[:m]) + _pairwise_sum(a[m:])


def _estimate(contrib):
    p = contrib.shape[0]
    s = _pairwise_sum(contrib)
    s2 = _pairwise_sum(contrib * contrib)
    mean = s / p
    var = np.maximum(s2 / p - mean * mean, 0.0) * (p / (p - 1.0))
    return mean, np.sqrt(var / p)


class _Tape:
    """Per-path buffered uniform streams read through one re-keyed Philox.

    Row r holds draws _start[r] onward of the stream keyed [master_seed,
    tags[r]].  Philox is counter-based (draw n is word n % 4 of block
    n // 4), so a refill re-keys the one bit generator at the row's next
    draw and reads exactly what a generator of the row's own would.
    """

    def __init__(self, master_seed, tags):
        self._tags = tags
        self._bitgen = np.random.Philox(key=[0, 0])
        self._gen = np.random.Generator(self._bitgen)
        # the seed goes in through the state (counter 0, empty buffer), as
        # Philox's key argument maps words >= 2**63 onto others; a refill
        # rewrites the counter and the tag
        self._state = self._bitgen.state
        self._state["state"]["key"][0] = int(master_seed)
        p = len(tags)
        self._buf = np.zeros((p, _CHUNK))
        self._start = np.full(p, -_CHUNK, dtype=np.int64)
        self._pos = np.full(p, _CHUNK, dtype=np.int64)

    def take(self, idx, k):
        """Next k uniforms for each path in idx, shape (len(idx), k)."""
        pos = self._pos[idx]
        for r in idx[pos + k > _CHUNK]:
            rr = int(r)
            n = int(self._start[rr] + self._pos[rr])
            # numpy's Philox bumps the counter before each block, so
            # counter n // 4 with an empty buffer next yields block n // 4
            self._state["state"]["counter"][0] = n // 4
            self._state["state"]["key"][1] = self._tags[rr]
            self._bitgen.state = self._state
            self._buf[rr] = self._gen.random(n % 4 + _CHUNK)[n % 4:]
            self._start[rr] = n
            self._pos[rr] = 0
        pos = self._pos[idx]
        out = self._buf[idx[:, None], pos[:, None] + np.arange(k)[None, :]]
        self._pos[idx] = pos + k
        return out


def _draw_mags(tape, idx, law):
    u = tape.take(idx, law.n_pick_uniforms + law.k_max)
    if law.n_pick_uniforms:
        return law.sample_mag(u[:, 0], u[:, 1:])
    return law.sample_mag(None, u)


class _Engine:
    """Lockstep state machine over a batch of paths."""

    def __init__(self, model: MapModel, cfg: SimConfig, path_ids, x0,
                 start_state, xbar0=None, jbar0=None):
        self.model = model
        self.cfg = cfg
        p = len(path_ids)
        self.p = p
        tags = [(int(start_state) << 40) | int(pid) for pid in path_ids]
        self.tape = _Tape(cfg.master_seed, tags)
        n = model.n_states
        self.sigma = np.array([math.sqrt(c.sigma2) for c in model.components])
        self.drift = np.array([c.drift for c in model.components])
        self.lam = np.array([c.total_jump_rate for c in model.components])
        self.exit_rate = np.array([-model.q_matrix[i, i] for i in range(n)])
        self.targets = []
        self.target_cum = []
        for i in range(n):
            tg = [j for j in range(n) if j != i and model.q_matrix[i, j] > 0]
            self.targets.append(np.array(tg, dtype=np.int64))
            w = np.array([model.q_matrix[i, j] for j in tg])
            self.target_cum.append(np.cumsum(w) / w.sum() if tg else np.array([]))
        self.part_cum = []
        for i in range(n):
            rates = np.array([r for r, _ in model.components[i].jumps])
            self.part_cum.append(np.cumsum(rates) / rates.sum() if len(rates) else None)
        self.t = np.zeros(p)
        self.x = np.full(p, float(x0))
        self.state = np.full(p, int(start_state), dtype=np.int64)
        self.hold = np.zeros(p)
        self.jrem = np.zeros(p)
        self.tgt = np.zeros(p, dtype=np.int64)
        self.xbar = np.full(p, float(x0 if xbar0 is None else xbar0))
        self.jbar = np.full(p, int(start_state if jbar0 is None else jbar0),
                            dtype=np.int64)
        self.alive = np.ones(p, dtype=bool)
        self._enter(np.flatnonzero(self.alive))

    def _enter(self, idx):
        """Entry draws for paths whose state[idx] was just set."""
        if idx.size == 0:
            return
        u = self.tape.take(idx, 2)
        st = self.state[idx]
        rate = self.exit_rate[st]
        with np.errstate(divide="ignore"):
            self.hold[idx] = np.where(
                rate > 0, -np.log1p(-u[:, 0]) / np.where(rate > 0, rate, 1.0), np.inf
            )
        tgt = np.zeros(idx.size, dtype=np.int64)
        for s in np.unique(st):
            m = st == s
            if len(self.targets[s]):
                pos = np.searchsorted(self.target_cum[s], u[m, 1], side="right")
                pos = np.minimum(pos, len(self.targets[s]) - 1)
                tgt[m] = self.targets[s][pos]
            else:
                tgt[m] = s
        self.tgt[idx] = tgt
        self.jrem[idx] = np.inf
        self._next_jump(idx[self.lam[st] > 0])

    def _next_jump(self, idx):
        """Time to the next compound jump for paths in idx (rate > 0)."""
        if idx.size:
            u = self.tape.take(idx, 1)[:, 0]
            self.jrem[idx] = -np.log1p(-u) / self.lam[self.state[idx]]

    def _cp_magnitudes(self, idx):
        """Compound-jump magnitudes for paths in idx (grouped per state/part)."""
        mags = np.zeros(idx.size)
        st = self.state[idx]
        for s in np.unique(st):
            m = st == s
            sub = idx[m]
            parts = self.model.components[s].jumps
            if len(parts) == 1:
                mags[m] = _draw_mags(self.tape, sub, parts[0][1])
                continue
            upart = self.tape.take(sub, 1)[:, 0]
            part = np.minimum(
                np.searchsorted(self.part_cum[s], upart, side="right"),
                len(parts) - 1,
            )
            vals = np.zeros(sub.size)
            for mth, (_, law) in enumerate(parts):
                mm = part == mth
                if mm.any():
                    vals[mm] = _draw_mags(self.tape, sub[mm], law)
            mags[m] = vals
        return mags

    def _switch_magnitudes(self, idx):
        """Switch-jump magnitudes for paths in idx about to change state."""
        mags = np.zeros(idx.size)
        st = self.state[idx]
        tg = self.tgt[idx]
        for s in np.unique(st):
            for g in np.unique(tg[st == s]):
                law = self.model.switch_jumps[s][g]
                if law.is_none:
                    continue
                m = (st == s) & (tg == g)
                mags[m] = _draw_mags(self.tape, idx[m], law)
        return mags


def _run(model, cfg, mode, *, q=0.0, x0=0.0, start_state=0, a=None,
         boundary_fn=None, gain=None, xbar0=None, jbar0=None, z=None,
         t_end=None, path_ids=None):
    """Core loop shared by all estimators; see the module docstring."""
    n = model.n_states
    if path_ids is None:
        path_ids = np.arange(cfg.n_paths)
    eng = _Engine(model, cfg, path_ids, x0, start_state,
                  xbar0=xbar0, jbar0=jbar0)
    p = eng.p
    dt = cfg.dt
    horizon = cfg.horizon
    t_stop = horizon if t_end is None else t_end
    t_freeze = math.inf if q <= 0 else -math.log(_FREEZE) / q
    out = {}
    if mode == "exit":
        out["c0"] = np.zeros((p, n))
        out["c1"] = np.zeros((p, n))
        out["c2"] = np.zeros((p, n))
        out["exited"] = np.zeros(p, dtype=bool)
        down_seen = np.zeros(p, dtype=bool)
    elif mode == "gain":
        out["contrib"] = np.zeros(p)
        out["stopped"] = np.zeros(p, dtype=bool)
    elif mode == "mgf":
        out["cm"] = np.zeros((p, n))
    records = []

    def record():
        records.append((eng.t[0], eng.x[0], float(eng.state[0]),
                        eng.xbar[0], float(eng.jbar[0])))

    def gain_check(idx, tau):
        """Stop paths in idx whose drawdown strictly exceeds the boundary."""
        if idx.size == 0:
            return
        bnd = boundary_fn(eng.xbar[idx], eng.jbar[idx])
        hit = (eng.xbar[idx] - eng.x[idx]) > bnd
        if hit.any():
            h_idx = idx[hit]
            fval = gain.f(eng.xbar[h_idx], eng.jbar[h_idx])
            out["contrib"][h_idx] = fval * np.exp(-q * tau[hit])
            out["stopped"][h_idx] = True
            eng.alive[h_idx] = False

    def down_check(idx, tau):
        """Record the first passage below 0 for paths in idx (exit mode)."""
        if idx.size == 0:
            return
        below = eng.x[idx] < 0.0
        fresh = below & ~down_seen[idx]
        if fresh.any():
            f_idx = idx[fresh]
            out["c2"][f_idx, eng.state[f_idx]] = np.exp(-q * tau[fresh])
            down_seen[f_idx] = True
            out["exited"][f_idx] = True

    check = {"exit": down_check, "gain": gain_check}.get(mode)

    def settle(idx, mags):
        """Apply the downward jumps mags to paths idx, run the mode's check
        at the current time and return the paths still alive."""
        eng.x[idx] -= mags
        if check is not None:
            check(idx, eng.t[idx])
        return idx[eng.alive[idx]]

    if mode == "gain":
        # reference scale for the truncation rule: the gain can grow with
        # the running maximum, so the freeze criterion is on the whole
        # discounted payoff bound, not the discount factor alone
        f_ref = max(float(gain.f(eng.xbar[0], eng.jbar[0])), 1e-300)
        gain_check(np.flatnonzero(eng.alive), eng.t[eng.alive])
    if mode == "exit" and x0 >= a:
        out["c0"][:, start_state] = 1.0
        out["c1"][:, start_state] = 1.0
        out["exited"][:] = True
        eng.alive[:] = False
    elif mode == "exit" and x0 < 0:
        out["c2"][:, start_state] = 1.0
        out["exited"][:] = True
        down_seen[:] = True
    if mode == "trace" and eng.alive.any():
        record()

    max_iter = int(4 * horizon / dt) + 100000
    for _ in range(max_iter):
        act = np.flatnonzero(eng.alive & (eng.t < t_stop - 1e-12))
        if act.size == 0:
            break
        st = eng.state[act]
        cap = t_stop - eng.t[act]
        delta = np.minimum(eng.hold[act], eng.jrem[act])
        diffusive = eng.sigma[st] > 0
        delta = np.where(diffusive, np.minimum(delta, dt), delta)
        delta = np.minimum(delta, cap)
        x_old = eng.x[act].copy()
        x_new = x_old + eng.drift[st] * delta
        d_idx = act[diffusive]
        if d_idx.size:
            u = np.clip(eng.tape.take(d_idx, 1)[:, 0], 1e-300, 1.0 - 1e-16)
            zn = ndtri(u)
            x_new[diffusive] += eng.sigma[st[diffusive]] * np.sqrt(
                delta[diffusive]) * zn
        t_new = eng.t[act] + delta
        eng.x[act] = x_new
        eng.t[act] = t_new
        eng.hold[act] -= delta
        eng.jrem[act] -= delta

        if mode == "exit":
            # barrier reads: grid time for diffusive segments, exact linear
            # crossing time on drift-only segments (t_new - delta is not
            # bitwise the old time, so the expression stays as written)
            up = x_new >= a
            down = (x_new < 0.0) & ~up
            hit = up | down
            if hit.any():
                tau = t_new.copy()
                bv = hit & ~diffusive
                if bv.any():
                    level = np.where(up[bv], a, 0.0)
                    tau[bv] = (t_new[bv] - delta[bv]
                               + (level - x_old[bv]) / eng.drift[st[bv]])
                if up.any():
                    u_idx = act[up]
                    disc = np.exp(-q * tau[up])
                    out["c0"][u_idx, eng.state[u_idx]] = disc
                    first = ~down_seen[u_idx]
                    out["c1"][u_idx[first], eng.state[u_idx][first]] = disc[first]
                    out["exited"][u_idx] = True
                    eng.alive[u_idx] = False
                down_check(act[down], tau[down])
        elif mode == "mgf":
            done = t_new >= t_end - 1e-12
            if done.any():
                f_idx = act[done]
                out["cm"][f_idx, eng.state[f_idx]] = np.exp(z * eng.x[f_idx])
                eng.alive[f_idx] = False
        else:  # gain and trace: running maximum and its state
            m = act[x_new >= eng.xbar[act]]
            eng.xbar[m] = eng.x[m]
            eng.jbar[m] = eng.state[m]
            if mode == "gain":
                gain_check(act, t_new)

        # compound jumps at exact exponential times
        jmp = np.flatnonzero(eng.alive & (eng.jrem == 0.0))
        if jmp.size:
            eng._next_jump(settle(jmp, eng._cp_magnitudes(jmp)))

        # modulator switches at exact holding times; the switch jump follows
        # the law of the state being left, and the modulator is
        # right-continuous, so any crossing caused by the switch jump is
        # attributed to the entered state
        sw = np.flatnonzero(eng.alive & (eng.hold == 0.0))
        if sw.size:
            mags = eng._switch_magnitudes(sw)
            eng.state[sw] = eng.tgt[sw]
            eng._enter(settle(sw, mags))

        if mode == "trace" and eng.alive[0]:
            record()

        if mode == "gain" and q > 0:
            live = np.flatnonzero(eng.alive)
            if live.size:
                bound = np.exp(-q * eng.t[live]) * gain.f(eng.xbar[live],
                                                          eng.jbar[live])
                dead = live[bound < _FREEZE * f_ref]
                eng.alive[dead] = False
        else:
            frozen = eng.alive & (eng.t >= t_freeze)
            if frozen.any():
                eng.alive[frozen] = False
    else:
        raise RuntimeError("path loop failed to terminate")

    if mode == "exit":
        out["unresolved"] = (~out["exited"]) & (np.exp(-q * np.minimum(
            eng.t, horizon)) >= _RESOLVE) & (eng.t >= horizon - 1e-9)
    elif mode == "gain":
        payoff_bound = np.exp(-q * eng.t) * gain.f(eng.xbar, eng.jbar)
        out["discounted"] = (~out["stopped"]) & (payoff_bound < _RESOLVE * f_ref)
    elif mode == "trace":
        out["records"] = np.array(records)
    return out


def _boundary_callable(boundary, n_states):
    if callable(boundary):
        return boundary
    if isinstance(boundary, (tuple, list)) and boundary and hasattr(boundary[0], "g"):
        curves = list(boundary)

        def fn(s_arr, j_arr):
            out = np.empty(len(s_arr))
            for j in range(n_states):
                m = j_arr == j
                if m.any():
                    out[m] = np.interp(s_arr[m], curves[j].s, curves[j].g)
            return out

        return fn
    c = np.asarray(boundary, dtype=float)
    if c.shape != (n_states,):
        raise ValidationError("need one boundary value per state")
    if (c < 0).any():
        raise ValidationError("drawdown boundaries must be nonnegative")
    return lambda s_arr, j_arr: c[j_arr]


# --- public operations -------------------------------------------------


def sample_path(model: MapModel, config: SimConfig, path_index: int,
                x0: float = 0.0, start_state: int = 0):
    """One trajectory as an (M, 5) array of rows (t, X, J, Xbar, Jbar).

    Uses the same engine and draw protocol as the batch estimators, so the
    trajectory is the one path path_index follows inside any batch that
    starts in start_state.
    """
    res = _run(model, config, "trace", x0=x0, start_state=start_state,
               path_ids=np.array([int(path_index)]))
    return res["records"]


def estimate_exit(model: MapModel, config: SimConfig, q: float, x: float,
                  a: float):
    """Empirical versions of the three exit identities.

    Runs one pass of config.n_paths paths per starting modulator state,
    from level x with barriers 0 and a.  Returns PathEstimate triplet
    (one-sided up, up-before-down, down-before-up), each with an (N, N)
    value matrix indexed by (start state, exit state).  Paths continue
    after passing below 0 until they cross a or their discount factor is
    exhausted, which resolves the one-sided identity on the same sweep.

    Raises HorizonTooShort when more than 1% of paths neither exit nor
    discount below 1e-8 within the horizon.
    """
    q = float(q)
    x = float(x)
    a = float(a)
    if not 0 <= q < math.inf:
        raise ValidationError("q must be finite and >= 0")
    if config.dt > 1e-3 + 1e-15:
        raise ValidationError("exit estimates require dt <= 1e-3")
    if not 0 < a < math.inf:
        raise ValidationError("upper barrier must be finite and positive")
    if not -math.inf < x <= a:
        raise ValidationError("requires finite x <= a")
    n = model.n_states
    vals = {k: np.zeros((n, n)) for k in ("c0", "c1", "c2")}
    ses = {k: np.zeros((n, n)) for k in ("c0", "c1", "c2")}
    resolved = 0
    bad = 0
    for i in range(n):
        res = _run(model, config, "exit", q=q, x0=x, a=a, start_state=i)
        for k in ("c0", "c1", "c2"):
            mean, se = _estimate(res[k])
            vals[k][i] = mean
            ses[k][i] = se
        bad += int(res["unresolved"].sum())
        resolved += config.n_paths - int(res["unresolved"].sum())
    if bad > 0.01 * n * config.n_paths:
        raise HorizonTooShort(
            f"{bad} of {n * config.n_paths} paths unresolved at the horizon"
        )
    return tuple(
        PathEstimate(value=vals[k], std_error=ses[k], n_effective=resolved)
        for k in ("c0", "c1", "c2")
    )


def estimate_stopped_gain(model: MapModel, config: SimConfig, q: float,
                          gain, boundary, start):
    """E[e^{-q tau_g} f(Xbar, Jbar)] under the drawdown rule tau_g.

    boundary: per-state constants, boundary curves from the ODE solver, or
    a callable (s_array, jbar_array) -> values.  start = (x, s, i, j) with
    x <= s gives the initial level, running maximum, modulator state and
    maximum-time modulator state.  Stopping is tested after every grid,
    jump and switch event (strict inequality, matching the definition of
    the drawdown time).
    """
    q = float(q)
    x0, s0, i0, j0 = start
    x0 = float(x0)
    s0 = float(s0)
    if not 0 <= q < math.inf:
        raise ValidationError("q must be finite and >= 0")
    if x0 > s0 + 1e-12:
        raise ValidationError("start needs x <= s")
    fn = _boundary_callable(boundary, model.n_states)
    res = _run(model, config, "gain", q=q, x0=x0, start_state=int(i0),
               boundary_fn=fn, gain=gain, xbar0=s0, jbar0=int(j0))
    mean, se = _estimate(res["contrib"])
    n_eff = int(res["stopped"].sum()) + int(res["discounted"].sum())
    unresolved = config.n_paths - n_eff
    if unresolved > 0.01 * config.n_paths:
        raise HorizonTooShort(
            f"{unresolved} of {config.n_paths} paths neither stopped nor "
            "discounted out by the horizon"
        )
    return PathEstimate(value=float(mean), std_error=float(se),
                        n_effective=n_eff)


def verify_mgf(model: MapModel, config: SimConfig, z: float, t: float):
    """Empirical E_{(0,i)}[e^{z X_t}; J_t = j] against the matrix exponential.

    Returns (PathEstimate with (N, N) value, analytic e^{Psi(z) t}).
    """
    z = float(z)
    t = float(t)
    for loc in model.transform_poles():
        if z <= loc:
            raise ValidationError(
                f"z = {z} is outside the transform domain (pole at {loc})"
            )
    n = model.n_states
    vals = np.zeros((n, n))
    ses = np.zeros((n, n))
    for i in range(n):
        res = _run(model, config, "mgf", x0=0.0, start_state=i, z=z,
                   t_end=t)
        mean, se = _estimate(res["cm"])
        vals[i] = mean
        ses[i] = se
    analytic = np.real(expm(big_psi(model, z) * t))
    est = PathEstimate(value=vals, std_error=ses,
                       n_effective=n * config.n_paths)
    return est, analytic
