"""Batch front-end: model files in, CSV/SVG/JSON artifacts out.

Every command is deterministic given its arguments (simulation included,
through the master seed).  CSV is the canonical output; SVG charts are a
convenience rendering of the same data.  State labels in files and
summaries are 1-based; the Python API is 0-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import svgplot
from .config import builtin_names, load_model
from .errors import MapstopError, Unbounded, ValidationError
from .fluctuation import one_sided_up, two_sided_down, two_sided_up
from .model import kappa, perron_vector, phi
from .scale import ScaleTable, a_threshold, spectral_decompose
from .simulate import SimConfig, estimate_exit, estimate_stopped_gain, verify_mgf
from .stopping import GainSpec, solve_boundary_ode, solve_shepp

_ENV_OUTDIR = "MAPSTOP_OUTDIR"


def _fmt(v):
    return f"{v:.12g}"


def _out_dir(args):
    d = args.out or os.environ.get(_ENV_OUTDIR) or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    print(f"wrote {path}")


def cmd_kappa(args):
    if args.grid < 1:
        raise ValidationError("--grid needs at least one point")
    if not math.isfinite(args.theta_max):
        raise ValidationError("--theta-max must be finite")
    model = load_model(args.model)
    n = model.n_states
    thetas = np.linspace(0.0, args.theta_max, args.grid)
    rows = []
    for th in thetas:
        k = kappa(model, th)
        v = perron_vector(model, th)
        rows.append([_fmt(th), _fmt(k)] + [_fmt(x) for x in v])
    prows = []
    for q in args.q:
        p = phi(model, q)
        prows.append([_fmt(q), _fmt(p), _fmt(kappa(model, p))])
    d = _out_dir(args)
    _write_csv(os.path.join(d, "kappa.csv"),
               ["theta", "kappa"] + [f"v_{j + 1}" for j in range(n)], rows)
    _write_csv(os.path.join(d, "phi.csv"), ["q", "phi", "kappa_at_phi"], prows)
    eig = sorted(np.linalg.eigvals(model.q_matrix).real)
    print("modulator eigenvalues:", ", ".join(_fmt(v) for v in eig))
    for row in prows:
        print(f"q={float(row[0]):g}: Phi(q)={float(row[1]):.6f}")
    return 0


def cmd_scale(args):
    model = load_model(args.model)
    rep = spectral_decompose(model, args.q)
    table = ScaleTable.from_rep(rep, x_max=args.xmax, step=args.step)
    d = _out_dir(args)
    path = os.path.join(d, f"scale_q{args.q:g}.csv")
    table.to_csv(path)
    print(f"wrote {path}")
    n = model.n_states
    for j in range(n):
        u0 = table.u[0, j]
        a_j = a_threshold(rep, j, x_max=args.xmax, step=args.step)
        a_txt = "infinity" if math.isinf(a_j) else f"{a_j:.6f}"
        print(f"state {j + 1}: u(0+)={u0:.6f}  a({j + 1})={a_txt}")
    return 0


def cmd_shepp(args):
    model = load_model(args.model)
    h = np.array(args.h, dtype=float) if args.h else np.ones(model.n_states)
    sol = solve_shepp(model, args.q, h=h, x_max=args.xmax)
    d = _out_dir(args)
    doc = {
        "q": args.q,
        "kappa1": sol.kappa1,
        "states": [
            {
                "state": st.state + 1,
                "regime": st.regime,
                "c": None if math.isnan(st.c) else st.c,
                "a": "infinity" if math.isinf(st.a) else st.a,
            }
            for st in sol.states
        ],
    }
    path = os.path.join(d, f"shepp_q{args.q:g}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    for st in sol.states:
        c_txt = "none" if math.isnan(st.c) else f"{st.c:.6f}"
        print(f"state {st.state + 1}: {st.regime}  c={c_txt}")
    return 0


def cmd_boundary(args):
    model = load_model(args.model)
    n = model.n_states
    if args.gain == "shepp":
        gain = GainSpec.shepp(np.ones(n))
    else:
        gain = GainSpec.capped(np.ones(n), args.K, args.eps)
    if args.init:
        init = np.array(args.init, dtype=float)
    else:
        sol = solve_shepp(model, args.q)
        if not all(st.has_boundary for st in sol.states):
            raise ValidationError(
                "no default initial boundary (a state has no root); pass --init"
            )
        init = np.array([st.c for st in sol.states])
    curves = solve_boundary_ode(model, args.q, gain, (args.s0, args.s1), init,
                                step=args.step)
    d = _out_dir(args)
    path = os.path.join(d, f"boundary_q{args.q:g}.csv")
    header = ["s"] + [f"g_{j + 1}" for j in range(n)]
    rows = []
    m = min(len(c.s) for c in curves)
    for k in range(m):
        rows.append([_fmt(curves[0].s[k])] + [_fmt(c.g[k]) for c in curves])
    _write_csv(path, header, rows)
    for c in curves:
        tail = "" if c.completed else "  (stopped early)"
        flags = f" violations={len(c.violations)} stiff={c.stiff}"
        print(f"state {c.state + 1}: g({c.s[-1]:.4f})={c.g[-1]:.6f}{flags}{tail}")
    return 0


def cmd_exit(args):
    model = load_model(args.model)
    q, x, a = args.q, args.x, args.a
    rep = spectral_decompose(model, q)
    mats = {
        "id0": one_sided_up(model, q, x, a),
        "id1": two_sided_up(rep, x, a),
        "id2": two_sided_down(rep, x, a),
    }
    d = _out_dir(args)
    path = os.path.join(d, f"exit_q{q:g}.csv")
    rows = []
    for name, mat in mats.items():
        for i in range(model.n_states):
            for j in range(model.n_states):
                rows.append([name, str(i + 1), str(j + 1), _fmt(mat[i, j])])
    _write_csv(path, ["functional", "entry_i", "entry_j", "value"], rows)
    for name, mat in mats.items():
        print(name)
        for i in range(model.n_states):
            print("  " + "  ".join(f"{v:.6f}" for v in mat[i]))
    return 0


def cmd_simulate(args):
    model = load_model(args.model)
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, n_paths=args.paths,
                    master_seed=args.seed)
    d = _out_dir(args)
    rows = []

    def add(name, i, j, est, se):
        rows.append([name, str(i + 1), str(j + 1), _fmt(est), _fmt(se),
                     str(args.paths), _fmt(args.dt)])

    if args.functional in ("id0", "id1", "id2"):
        ests = dict(zip(("id0", "id1", "id2"),
                        estimate_exit(model, cfg, args.q, args.x, args.a)))
        est = ests[args.functional]
        for i in range(model.n_states):
            for j in range(model.n_states):
                add(args.functional, i, j, est.value[i, j], est.std_error[i, j])
    elif args.functional == "mgf":
        est, analytic = verify_mgf(model, cfg, args.z, args.t)
        for i in range(model.n_states):
            for j in range(model.n_states):
                add("mgf", i, j, est.value[i, j], est.std_error[i, j])
        print("analytic matrix exponential:")
        for i in range(model.n_states):
            print("  " + "  ".join(f"{v:.6f}" for v in analytic[i]))
    else:
        sol = solve_shepp(model, args.q)
        if not all(st.has_boundary for st in sol.states):
            raise ValidationError("value functional needs boundaries in every state")
        cs = np.array([st.c for st in sol.states])
        gain = GainSpec.shepp(np.ones(model.n_states))
        for i in range(model.n_states):
            est = estimate_stopped_gain(model, cfg, args.q, gain, cs,
                                        (0.0, 0.0, i, i))
            add("value", i, i, est.value, est.std_error)
    path = os.path.join(d, f"simulate_{args.functional}.csv")
    _write_csv(path, ["functional", "entry_i", "entry_j", "estimate",
                      "std_error", "n_paths", "dt"], rows)
    return 0


_FIG_PANELS = ((1.5, 0), (1.5, 1), (1.8, 1), (5.0, 0), (5.0, 1))


def cmd_figures(args):
    model = load_model(args.model)
    if model.n_states != 2:
        raise ValidationError("figure set is defined for 2-state models")
    d = _out_dir(args)
    qs = sorted({q for q, _ in _FIG_PANELS})
    tables = {}
    for q in qs:
        rep = spectral_decompose(model, q)
        tables[q] = (rep, ScaleTable.from_rep(rep, x_max=args.xmax,
                                              step=args.step))
    for q, j in _FIG_PANELS:
        rep, table = tables[q]
        x = table.grid
        wr = table.w_row[:, j]
        u = table.u[:, j]
        for panel, ys in (("wrow", wr), ("u", u)):
            stem = f"{panel}_q{q:g}_state{j + 1}"
            _write_csv(os.path.join(d, stem + ".csv"),
                       ["x", panel], [[_fmt(a), _fmt(b)] for a, b in zip(x, ys)])
            svgplot.line_chart(
                os.path.join(d, stem + ".svg"), x, [ys],
                labels=[f"{panel} state {j + 1}"],
                title=f"{panel} state {j + 1}, q={q:g}", xlabel="x",
                ylabel=panel)
    rows = []
    for q in qs:
        rep, table = tables[q]
        try:
            sol = solve_shepp(model, q, x_max=args.xmax)
            cs = []
            for st in sol.states:
                cs.append(st.regime if math.isnan(st.c) else _fmt(st.c))
        except Unbounded:
            cs = ["Unbounded"] * 2
        a2 = a_threshold(rep, 1, x_max=args.xmax)
        rows.append([_fmt(q), cs[0], cs[1],
                     "infinity" if math.isinf(a2) else _fmt(a2)])
    _write_csv(os.path.join(d, "summary.csv"), ["q", "c_1", "c_2", "a_2"], rows)
    return 0


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="mapstop",
        description="fluctuation and optimal-stopping toolkit for "
                    "Markov-modulated spectrally negative processes",
        epilog=f"builtin models: {', '.join(builtin_names())}; "
               f"default output directory via ${_ENV_OUTDIR}",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("model", help="builtin model name or config path")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("kappa", help="cumulant diagonal, Perron root and inverse")
    common(p)
    p.add_argument("--theta-max", type=float, default=3.0)
    p.add_argument("--grid", type=int, default=61)
    p.add_argument("--q", type=float, nargs="+", default=[1.5, 1.8, 5.0])
    p.set_defaults(fn=cmd_kappa)

    p = sub.add_parser("scale", help="scale-matrix tables on a grid")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--xmax", type=float, default=5.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("shepp", help="constant optimal drawdown boundaries")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--h", type=float, nargs="+", default=None)
    p.add_argument("--xmax", type=float, default=5.0)
    p.set_defaults(fn=cmd_shepp)

    p = sub.add_parser("boundary", help="general boundary ODE curves")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--gain", choices=("shepp", "capped"), default="shepp")
    p.add_argument("--K", type=float, default=1.5)
    p.add_argument("--eps", type=float, default=2.0)
    p.add_argument("--s0", type=float, default=0.0)
    p.add_argument("--s1", type=float, default=1.0)
    p.add_argument("--init", type=float, nargs="+", default=None)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("exit", help="two-barrier exit identity matrices")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(fn=cmd_exit)

    p = sub.add_parser("simulate", help="Monte Carlo estimates")
    common(p)
    p.add_argument("--q", type=float, default=1.5)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=20260822)
    p.add_argument("--functional", required=True,
                   choices=("id0", "id1", "id2", "mgf", "value"))
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--z", type=float, default=0.5)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=50.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("figures", help="row-sum and u panels plus c-value table")
    common(p)
    p.add_argument("--xmax", type=float, default=2.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(fn=cmd_figures)
    return ap


def main(argv=None):
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except MapstopError as exc:
        print(f"mapstop: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
