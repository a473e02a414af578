"""Monte Carlo oracle for the modulated additive process.

Paths are advanced in vectorized lockstep rounds: exact exponential
modulator holding times, exact compound-Poisson jump times within a state,
and an Euler scheme on a dt grid for the Brownian part.  Barrier crossings
are read at grid resolution for diffusive states (the usual O(sqrt(dt))
one-sided bias) and by exact linear interpolation on drift-only segments.

Each round first runs every diffusive path through its quiet dt steps,
those after which no event, check or freeze fires, in one block of up to
_CHUNK steps (fewer when many paths are live).  The block repeats the
one-step arithmetic in its order, and the uniforms it reads but does not
use go back to the tape, so the draws and every path are the same bit for
bit at any block width.  Then the round's one step takes each path to or
through its next event.

Each estimator is a _Rule built once per batch: its outputs and a few
hooks, namely the check at each event, where a path would stop or is
discounted out, and a trace's rows.  The block and the round read the
same hooks, so each rule is written once.  The MGF estimator has none:
every path runs to t_end, where its (X, J) is read.

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
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.special import ndtri

from .errors import HorizonTooShort, TooManyEvents, ValidationError
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
_BLOCK = 16384
_ROUND_SLACK = 100000
_FREEZE = 1e-10
_RESOLVE = 1e-8


def _is_index(v, n):
    """Whether v is an integer (of any numeric type) in [0, n)."""
    try:
        return int(v) == v and 0 <= v < n
    except (TypeError, ValueError, OverflowError):
        return False


@dataclass(frozen=True)
class SimConfig:
    """Engine parameters; n_paths is per starting state."""

    dt: float = 1e-3
    horizon: float = 50.0
    n_paths: int = 1000
    master_seed: int = 20260822

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValidationError("dt must be finite and positive")
        if not 0 < self.horizon < math.inf:
            raise ValidationError("horizon must be finite and positive")
        if not (_is_index(self.n_paths, 2**40) and self.n_paths >= 100):
            raise ValidationError("n_paths must be an integer in [100, 2**40)")
        if not _is_index(self.master_seed, 2**64):
            raise ValidationError("master_seed must be an integer in [0, 2**64)")


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

    def give_back(self, idx, counts):
        """Return the last counts[r] uniforms taken for each path in idx;
        they are the next ones taken again."""
        self._pos[idx] -= counts


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
        self.part_cum = []
        for i in range(n):
            tg = [j for j in range(n) if j != i and model.q_matrix[i, j] > 0]
            self.targets.append(np.array(tg, dtype=np.int64))
            w = np.array([model.q_matrix[i, j] for j in tg])
            self.target_cum.append(np.cumsum(w) / w.sum() if tg else np.array([]))
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


class _Rule(NamedTuple):
    """An estimator's part of the path loop in _run, built once per batch:
    its outputs and the hooks the loop calls (None where it has none)."""

    outputs: Callable[[], dict]  # the batch's result arrays
    check: Callable | None = None  # (idx, tau): end or record paths at times tau
    # (st, x_old, x_new, t_new, delta, diffusive): the times check reads
    # for a step, when they are not its end times t_new
    cross_time: Callable | None = None
    stops: Callable | None = None  # (d, xn, xb, jb): where check would act
    frozen: Callable | None = None  # (t, xb, jb): where paths are discounted out
    record: Callable | None = None  # (t, x, j, xbar, jbar): rows of path 0
    tracks_max: bool = False  # whether the loop keeps Xbar and Jbar


def _exit_rule(eng, q, a, horizon):
    """Discounted first passages above a (c0, and c1 before any passage
    below 0) and below 0 (c2), by exit state."""
    p, n = eng.p, eng.model.n_states
    c0, c1, c2 = np.zeros((p, n)), np.zeros((p, n)), np.zeros((p, n))
    exited = np.zeros(p, dtype=bool)
    down_seen = np.zeros(p, dtype=bool)

    def check(idx, tau):
        """Record passages above a and first passages below 0."""
        x = eng.x[idx]
        above = x >= a
        if above.any():
            u_idx = idx[above]
            disc = np.exp(-q * tau[above])
            c0[u_idx, eng.state[u_idx]] = disc
            first = ~down_seen[u_idx]
            c1[u_idx[first], eng.state[u_idx][first]] = disc[first]
            exited[u_idx] = True
            eng.alive[u_idx] = False
        fresh = (x < 0.0) & ~down_seen[idx]
        if fresh.any():
            f_idx = idx[fresh]
            c2[f_idx, eng.state[f_idx]] = np.exp(-q * tau[fresh])
            down_seen[f_idx] = True
            exited[f_idx] = True

    def cross_time(st, x_old, x_new, t_new, delta, diffusive):
        # barrier reads: grid time for diffusive segments, exact linear
        # crossing time on drift-only segments (t_new - delta is not
        # bitwise the old time, so the expression stays as written)
        above = x_new >= a
        bv = (above | (x_new < 0.0)) & ~diffusive
        if not bv.any():
            return t_new
        tau = t_new.copy()
        level = np.where(above[bv], a, 0.0)
        tau[bv] = (t_new[bv] - delta[bv]
                   + (level - x_old[bv]) / eng.drift[st[bv]])
        return tau

    def stops(d, xn, xb, jb):
        """Passages above a and first passages below 0, per block step."""
        return (xn >= a) | ((xn < 0.0) & ~down_seen[d][:, None])

    def outputs():
        unresolved = (~exited) & (np.exp(-q * np.minimum(
            eng.t, horizon)) >= _RESOLVE) & (eng.t >= horizon - 1e-9)
        return {"c0": c0, "c1": c1, "c2": c2, "exited": exited,
                "unresolved": unresolved}

    frozen = (lambda t, xb, jb: t >= -math.log(_FREEZE) / q) if q > 0 else None
    return _Rule(outputs, check=check, cross_time=cross_time, stops=stops, frozen=frozen)


def _gain_rule(eng, q, boundary_fn, gain):
    """The gain e^{-q tau} f(Xbar, Jbar) at the drawdown time tau."""
    contrib = np.zeros(eng.p)
    stopped = np.zeros(eng.p, dtype=bool)
    # reference scale for the truncation rule: the gain can grow with
    # the running maximum, so the freeze criterion is on the whole
    # discounted payoff bound, not the discount factor alone
    f_ref = max(float(gain.f(eng.xbar[0], eng.jbar[0])), 1e-300)

    def payoff(t, xb, jb):
        """The discounted payoff bound e^{-q t} f(xb, jb)."""
        return np.exp(-q * t) * gain.f(xb, jb)

    def stops(d, xn, xb, jb):
        """Whether the drawdown xb - xn strictly exceeds the boundary."""
        bnd = boundary_fn(xb.ravel(), jb.ravel())
        return ((xb.ravel() - xn.ravel()) > bnd).reshape(xn.shape)

    def check(idx, tau):
        """Stop the paths in idx that the boundary stops."""
        hit = stops(idx, eng.x[idx], eng.xbar[idx], eng.jbar[idx])
        if hit.any():
            h_idx = idx[hit]
            contrib[h_idx] = payoff(tau[hit], eng.xbar[h_idx], eng.jbar[h_idx])
            stopped[h_idx] = True
            eng.alive[h_idx] = False

    def outputs():
        small = payoff(eng.t, eng.xbar, eng.jbar) < _RESOLVE * f_ref
        return {"contrib": contrib, "stopped": stopped,
                "discounted": ~stopped & small}

    frozen = (lambda t, xb, jb: payoff(t, xb, jb) < _FREEZE * f_ref) if q > 0 else None
    return _Rule(outputs, check=check, stops=stops, frozen=frozen, tracks_max=True)


def _run(model, cfg, mode, *, q=0.0, x0=0.0, start_state=0, a=None,
         boundary_fn=None, gain=None, xbar0=None, jbar0=None, z=None,
         t_end=None, path_ids=None):
    """Core loop shared by all estimators; see the module docstring.  mode
    picks the estimator's _Rule, and the loop reads nothing else of it."""
    if path_ids is None:
        path_ids = np.arange(cfg.n_paths)
    eng = _Engine(model, cfg, path_ids, x0, start_state,
                  xbar0=xbar0, jbar0=jbar0)
    dt = cfg.dt
    horizon = cfg.horizon
    t_stop = horizon if t_end is None else t_end
    if mode == "exit":
        rule = _exit_rule(eng, q, a, horizon)
    elif mode == "gain":
        rule = _gain_rule(eng, q, boundary_fn, gain)
    elif mode == "trace":  # rows (t, X, J, Xbar, Jbar) of path 0
        rows = []
        rule = _Rule(lambda: {"records": np.array(rows)}, tracks_max=True,
                     record=lambda *cols: rows.extend(zip(*cols)))
    else:  # mgf: every path runs to t_end, where e^{z X} is read by J
        rule = _Rule(lambda: {"cm": np.where(
            eng.state[:, None] == np.arange(model.n_states),
            np.exp(z * eng.x)[:, None], 0.0)})
    if rule.check is not None:
        rule.check(np.arange(eng.p), eng.t)

    def settle(idx, mags):
        """Apply the downward jumps mags to paths idx, run the rule's check
        at the current time and return the paths still alive."""
        eng.x[idx] -= mags
        if rule.check is not None:
            rule.check(idx, eng.t[idx])
        return idx[eng.alive[idx]]

    def quiet_steps(act):
        """Run the diffusive paths in act through their leading quiet steps,
        full dt steps after which no event, check or freeze fires, in one
        block of up to k steps per path.  The block repeats the one-step
        loop's operations in its order (numpy's accumulate is a sequential
        left fold), so every path is bit for bit the same at any width."""
        d = act[eng.sigma[eng.state[act]] > 0]
        m = d.size
        if not 0 < m <= _BLOCK // 2:  # room for two steps per path
            return
        k = min(_CHUNK, _BLOCK // m)
        st = eng.state[d]
        u = np.clip(eng.tape.take(d, k), 1e-300, 1.0 - 1e-16)
        steps = np.empty((m, 2 * k + 1))
        steps[:, 0] = eng.x[d]
        steps[:, 1::2] = (eng.drift[st] * dt)[:, None]
        steps[:, 2::2] = (eng.sigma[st] * math.sqrt(dt))[:, None] * ndtri(u)
        x = np.add.accumulate(steps, axis=1)[:, 0::2]

        def clock(ufunc, start):
            col = np.full((m, k + 1), dt)
            col[:, 0] = start
            return ufunc.accumulate(col, axis=1)

        t = clock(np.add, eng.t[d])
        hold = clock(np.subtract, eng.hold[d])
        jrem = clock(np.subtract, eng.jrem[d])
        tn, xn = t[:, 1:], x[:, 1:]
        # step j runs a full dt with no clock ringing, leaves the path
        # active ...
        quiet = ((np.minimum(hold[:, :-1], jrem[:, :-1]) > dt)
                 & (t_stop - t[:, :-1] > dt) & (tn < t_stop - 1e-12))
        xb = jb = None
        if rule.tracks_max:
            # a step sets (xbar, jbar) when x reaches the previous maximum
            cand = x.copy()
            cand[:, 0] = eng.xbar[d]
            new = xn >= np.maximum.accumulate(cand, axis=1)[:, :-1]
            last = np.zeros((m, k + 1), dtype=np.int64)
            last[:, 1:] = np.maximum.accumulate(
                np.where(new, np.arange(1, k + 1), 0), axis=1)
            xbar = np.take_along_axis(cand, last, axis=1)
            jbar = np.where(last > 0, st[:, None], eng.jbar[d][:, None])
            xb, jb = xbar[:, 1:], jbar[:, 1:]
        # ... and no check or freeze fires after it
        if rule.stops is not None:
            quiet &= ~rule.stops(d, xn, xb, jb)
        if rule.frozen is not None:
            quiet &= ~rule.frozen(tn, xb, jb)
        n = np.where(quiet.all(axis=1), k, quiet.argmin(axis=1))
        r = np.arange(m)
        eng.x[d] = x[r, n]
        eng.t[d], eng.hold[d], eng.jrem[d] = t[r, n], hold[r, n], jrem[r, n]
        if rule.tracks_max:
            eng.xbar[d] = xbar[r, n]
            eng.jbar[d] = jbar[r, n]
        if rule.record is not None:
            j = slice(1, n[0] + 1)
            rule.record(t[0, j], x[0, j], st[:1].repeat(n[0]), xbar[0, j], jbar[0, j])
        eng.tape.give_back(d, k - n)

    max_iter = int(4 * horizon / dt) + _ROUND_SLACK
    for _ in range(max_iter):
        if rule.record is not None and eng.alive[0]:
            rule.record(eng.t[:1], eng.x[:1], eng.state[:1], eng.xbar[:1],
                        eng.jbar[:1])
        act = np.flatnonzero(eng.alive & (eng.t < t_stop - 1e-12))
        if act.size == 0:
            break
        quiet_steps(act)
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
        if rule.tracks_max:  # running maximum and its state
            m = act[x_new >= eng.xbar[act]]
            eng.xbar[m] = eng.x[m]
            eng.jbar[m] = eng.state[m]
        if rule.check is not None:
            tau = t_new if rule.cross_time is None else rule.cross_time(
                st, x_old, x_new, t_new, delta, diffusive)
            rule.check(act, tau)

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

        if rule.frozen is not None:
            live = np.flatnonzero(eng.alive)
            eng.alive[live] = ~rule.frozen(eng.t[live], eng.xbar[live],
                                           eng.jbar[live])
    else:
        raise TooManyEvents(f"{act.size} of {eng.p} paths still live after "
                            f"{max_iter} engine rounds; shorten the horizon")
    return rule.outputs()


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
    if not (c >= 0).all():  # also refuses NaN; c_j = inf never stops
        raise ValidationError("drawdown boundaries must be nonnegative")
    return lambda s_arr, j_arr: c[j_arr]


def _per_start_state(model, config, mode, keys, **kw):
    """One batch of config.n_paths paths from each start state i.  Returns
    the (N, N) means and standard errors of each output in keys, row i
    from batch i, and the batches' outputs."""
    runs = [_run(model, config, mode, start_state=i, **kw)
            for i in range(model.n_states)]
    est = {}
    for k in keys:
        mean, se = zip(*(_estimate(res[k]) for res in runs))
        est[k] = np.array(mean), np.array(se)
    return est, runs


# --- public operations -------------------------------------------------


def sample_path(model: MapModel, config: SimConfig, path_index: int,
                x0: float = 0.0, start_state: int = 0):
    """One trajectory as an (M, 5) array of rows (t, X, J, Xbar, Jbar).

    Uses the same engine and draw protocol as the batch estimators, so the
    trajectory is the one path path_index follows inside any batch that
    starts in start_state.
    """
    if not _is_index(path_index, 2**40):
        raise ValidationError("path_index must be an integer in [0, 2**40)")
    if not _is_index(start_state, model.n_states):
        raise ValidationError("start_state is not a state of the model")
    if not math.isfinite(x0):
        raise ValidationError("x0 must be finite")
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
    est, runs = _per_start_state(model, config, "exit", ("c0", "c1", "c2"),
                                 q=q, x0=x, a=a)
    bad = sum(int(res["unresolved"].sum()) for res in runs)
    if bad > 0.01 * n * config.n_paths:
        raise HorizonTooShort(
            f"{bad} of {n * config.n_paths} paths unresolved at the horizon"
        )
    return tuple(PathEstimate(value=v, std_error=se,
                              n_effective=n * config.n_paths - bad)
                 for v, se in est.values())


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
    if not (math.isfinite(x0) and math.isfinite(s0)):
        raise ValidationError("start level and maximum must be finite")
    if x0 > s0 + 1e-12:
        raise ValidationError("start needs x <= s")
    if not (_is_index(i0, model.n_states) and _is_index(j0, model.n_states)):
        raise ValidationError("start states must be states of the model")
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
    if not math.isfinite(z):
        raise ValidationError("z must be finite")
    if not 0 < t < math.inf:
        raise ValidationError("t must be finite and positive")
    for loc in model.transform_poles():
        if z <= loc:
            raise ValidationError(
                f"z = {z} is outside the transform domain (pole at {loc})"
            )
    est, _ = _per_start_state(model, config, "mgf", ("cm",), x0=0.0, z=z,
                              t_end=t)
    analytic = np.real(expm(big_psi(model, z) * t))
    return PathEstimate(*est["cm"], n_effective=model.n_states * config.n_paths), analytic
