import csv
import json
import os
import warnings

import numpy as np
import pytest

from mapstop import cli
from mapstop.config import dump_model, load_model
from mapstop.scale import ScaleTable, spectral_decompose

from conftest import check_scale_csv, exchangeable_model


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def test_kappa_command(tmp_path, capsys):
    rc = cli.main(["kappa", "ivanovs2", "--out", str(tmp_path),
                   "--theta-max", "2.0", "--grid", "21"])
    assert rc == 0
    rows = read_rows(tmp_path / "kappa.csv")
    assert len(rows) == 21
    ks = np.array([float(r["kappa"]) for r in rows])
    assert abs(ks[0]) < 1e-12
    second = ks[:-2] - 2 * ks[1:-1] + ks[2:]
    assert (second > -1e-9).all()
    prows = read_rows(tmp_path / "phi.csv")
    for r in prows:
        assert abs(float(r["kappa_at_phi"]) - float(r["q"])) < 1e-8
    out = capsys.readouterr().out
    assert "modulator eigenvalues" in out


def test_scale_command_roundtrip(tmp_path):
    rc = cli.main(["scale", "ivanovs2", "--q", "1.8", "--xmax", "0.5",
                   "--step", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "scale_q1.8.csv"
    rep = spectral_decompose(load_model("ivanovs2"), 1.8)
    check_scale_csv(path, ScaleTable.from_rep(rep, x_max=0.5, step=0.01))
    rows = read_rows(path)
    assert "u_2" in rows[0]
    u2 = float(rows[0]["u_2"])
    assert abs(u2 - 0.1) < 1e-9  # 1 - q W_2(0+) 1 = 1 - 1.8/2


def test_shepp_command_json(tmp_path):
    rc = cli.main(["shepp", "ivanovs2", "--q", "1.8", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "shepp_q1.8.json").read_text())
    assert doc["q"] == 1.8
    assert abs(doc["kappa1"] - 1.04346) < 1e-4
    states = {d["state"]: d for d in doc["states"]}
    assert abs(states[1]["c"] - 0.22599) < 1e-4
    assert abs(states[2]["c"] - 0.14712) < 1e-4
    assert states[1]["a"] == "infinity"


def test_shepp_command_no_root(tmp_path):
    rc = cli.main(["shepp", "ivanovs2", "--q", "1.5", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "shepp_q1.5.json").read_text())
    states = {d["state"]: d for d in doc["states"]}
    assert states[2]["c"] is None
    assert states[2]["regime"] == "NoRootOnRange"


def test_exit_command(tmp_path):
    rc = cli.main(["exit", "ivanovs2", "--q", "1.5", "--x", "0.5",
                   "--a", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "exit_q1.5.csv")
    assert len(rows) == 12
    vals = {(r["functional"], r["entry_i"], r["entry_j"]): float(r["value"])
            for r in rows}
    assert abs(vals[("id2", "1", "1")] - 0.3329) < 1e-3


def test_exit_command_high_barrier(tmp_path):
    """Exit matrices stay discounted probabilities far up: wiener2 at a = 10
    writes id2 entries in [0, 1], and ivanovs2 at a = 60 exits 0."""
    assert cli.main(["exit", "wiener2", "--q", "1.5", "--x", "9.7", "--a", "10",
                     "--out", str(tmp_path)]) == 0
    id2 = [float(r["value"]) for r in read_rows(tmp_path / "exit_q1.5.csv")
           if r["functional"] == "id2"]
    assert len(id2) == 4 and all(0.0 <= v <= 1.0 for v in id2)
    assert cli.main(["exit", "ivanovs2", "--q", "1.5", "--x", "30", "--a", "60",
                     "--out", str(tmp_path)]) == 0


def test_boundary_command(tmp_path):
    rc = cli.main(["boundary", "ivanovs2", "--q", "1.8", "--s0", "0.2",
                   "--s1", "0.5", "--step", "0.01", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "boundary_q1.8.csv")
    g1 = np.array([float(r["g_1"]) for r in rows])
    assert np.abs(g1 - 0.2259871).max() < 1e-5


def test_simulate_command(tmp_path):
    rc = cli.main(["simulate", "ivanovs2", "--q", "1.5", "--functional",
                   "id1", "--paths", "300", "--dt", "0.001",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = read_rows(tmp_path / "simulate_id1.csv")
    assert len(rows) == 4
    assert rows[0]["n_paths"] == "300"
    for r in rows:
        assert float(r["std_error"]) < 0.1


def test_figures_command(tmp_path):
    rc = cli.main(["figures", "ivanovs2", "--xmax", "1.5", "--step", "0.01",
                   "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    csvs = [n for n in names if n.endswith(".csv")]
    svgs = [n for n in names if n.endswith(".svg")]
    assert len(csvs) == 11  # 10 panels + summary
    assert len(svgs) == 10
    summary = read_rows(tmp_path / "summary.csv")
    by_q = {r["q"]: r for r in summary}
    assert by_q["1.5"]["c_2"] == "NoRootOnRange"
    assert abs(float(by_q["1.8"]["c_2"]) - 0.14712) < 1e-4
    assert float(by_q["5"]["c_2"]) == 0.0
    svg = (tmp_path / "u_q1.5_state2.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("MAPSTOP_OUTDIR", str(tmp_path))
    rc = cli.main(["shepp", "ivanovs2", "--q", "5"])
    assert rc == 0
    assert (tmp_path / "shepp_q5.json").exists()


def test_exit_codes(tmp_path):
    assert cli.main(["shepp", "ivanovs2", "--q", "0.9",
                     "--out", str(tmp_path)]) == 4
    assert cli.main(["kappa", "missing_model",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["simulate", "ivanovs2", "--functional", "id0",
                     "--dt", "0.005", "--out", str(tmp_path)]) == 2
    # a negative discount rate and a start above the upper barrier are bad input
    assert cli.main(["kappa", "ivanovs2", "--q", "-1",
                     "--out", str(tmp_path)]) == 2
    assert cli.main(["exit", "ivanovs2", "--q", "1.5", "--x", "2", "--a", "1",
                     "--out", str(tmp_path)]) == 2
    # scale functions overflow on [0, 200]: numerical failure, exit 3
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["shepp", "ivanovs2", "--q", "1.8", "--xmax", "200",
                         "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("argv", [
    ["scale", "ivanovs2", "--q", "1.5", "--xmax", "-1"],
    ["scale", "ivanovs2", "--q", "1.5", "--step", "-0.1"],
    ["scale", "ivanovs2", "--q", "1.5", "--step", "0"],
    ["boundary", "ivanovs2", "--q", "1.8", "--step", "0"],
    ["boundary", "ivanovs2", "--q", "1.8", "--s0", "0.2", "--s1", "0.5",
     "--step", "1"],
    ["shepp", "ivanovs2", "--q", "1.8", "--xmax", "-1"],
    ["shepp", "ivanovs2", "--q", "1.8", "--xmax", "0"],
    ["kappa", "ivanovs2", "--grid", "-1"],
    ["kappa", "ivanovs2", "--grid", "0"],
    ["shepp", "ivanovs2", "--q", "nan"],
    ["boundary", "ivanovs2", "--q", "nan"],
    ["scale", "ivanovs2", "--q", "nan"],
    ["kappa", "ivanovs2", "--q", "nan", "--grid", "3"],
    ["exit", "ivanovs2", "--q", "1.5", "--x", "nan", "--a", "1"],
    ["exit", "ivanovs2", "--q", "1.5", "--x", "0.5", "--a", "nan"],
    ["simulate", "ivanovs2", "--functional", "id1", "--dt", "nan"],
    ["simulate", "ivanovs2", "--functional", "id1", "--horizon", "nan"],
    ["scale", "ivanovs2", "--q", "inf"],
    ["shepp", "ivanovs2", "--q", "inf"],
    ["exit", "ivanovs2", "--q", "inf", "--x", "0.5", "--a", "1"],
    ["boundary", "ivanovs2", "--q", "1.8", "--s0", "0.2", "--s1", "inf"],
    ["kappa", "ivanovs2", "--theta-max", "nan"],
    ["kappa", "ivanovs2", "--theta-max", "inf"],
    ["simulate", "ivanovs2", "--q", "nan", "--functional", "id1", "--paths", "100"],
    ["shepp", "ivanovs2", "--q", "1.8", "--h", "nan", "1"],
    ["exit", "ivanovs2", "--q", "1.5", "--x", "inf", "--a", "inf"],
], ids=["scale_xmax_negative", "scale_step_negative", "scale_step_zero",
        "boundary_step_zero", "boundary_step_beyond_range",
        "shepp_xmax_negative", "shepp_xmax_zero", "kappa_grid_negative",
        "kappa_grid_zero", "shepp_q_nan", "boundary_q_nan", "scale_q_nan",
        "kappa_q_nan", "exit_x_nan", "exit_a_nan", "simulate_dt_nan",
        "simulate_horizon_nan", "scale_q_inf", "shepp_q_inf", "exit_q_inf",
        "boundary_s1_inf", "kappa_theta_max_nan", "kappa_theta_max_inf",
        "simulate_q_nan", "shepp_h_nan", "exit_x_a_inf"])
def test_bad_grid_is_validation_error(tmp_path, argv):
    """A grid with no points, or a NaN or infinity where a range is checked,
    is bad input (exit 2), not a traceback, and nothing is written; the
    input is refused before any numpy warning can be raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert not os.listdir(tmp_path)


def test_invalid_model_file_exits_2(tmp_path):
    """A model breaking the standing assumptions (Q rows not summing to 0)
    is bad input: exit 2 and no output."""
    p = tmp_path / "bad.cfg"
    p.write_text(json.dumps({"states": 2, "Q": [-1.0, 0.5, 2.0, -2.0],
                             "drift": [1.0, 1.0], "sigma2": [1.0, 0.5]}))
    out = tmp_path / "out"
    assert cli.main(["shepp", str(p), "--q", "1.8", "--out", str(out)]) == 2
    assert not out.exists()


def test_non_finite_model_file_exits_2(tmp_path):
    """A model file with an infinite drift is bad input: exit 2, no output."""
    p = tmp_path / "bad.cfg"
    p.write_text(json.dumps({"states": 2, "Q": [-1.0, 1.0, 2.0, -2.0],
                             "drift": [float("inf"), 1.0], "sigma2": [1.0, 0.5]}))
    out = tmp_path / "out"
    assert cli.main(["shepp", str(p), "--q", "1.8", "--out", str(out)]) == 2
    assert not out.exists()


def test_exchangeable_model_file(tmp_path):
    """Repeated (semisimple) roots are no failure: shepp exits 0 and every
    state gets the boundary of the one-state model."""
    p = tmp_path / "exchangeable.cfg"
    dump_model(exchangeable_model(), p)
    assert cli.main(["shepp", str(p), "--q", "1.5", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "shepp_q1.5.json").read_text())
    assert all(abs(d["c"] - 0.3007835426) < 1e-9 for d in doc["states"])


_ONE_JUMP = {"states": 1, "Q": [0.0], "drift": [1.0], "sigma2": [0.0]}


@pytest.mark.parametrize("jump", [
    {"state": 1, "rate": -1, "kind": "exponential", "jump_rate": 2.0},
    {"state": 1, "rate": 1, "kind": "exponential", "jump_rate": 0},
    {"state": 1, "rate": 1, "kind": "exponential"},
], ids=["negative_rate", "zero_jump_rate", "missing_jump_rate"])
def test_malformed_model_file_exits_2(tmp_path, jump):
    """A model file whose jump entry is bad is input error, not a traceback."""
    p = tmp_path / "bad.cfg"
    p.write_text(json.dumps(dict(_ONE_JUMP, jumps=[jump])))
    assert cli.main(["shepp", str(p), "--q", "1.8", "--out", str(tmp_path)]) == 2


def test_model_file_path(tmp_path):
    """A model given as a JSON file path loads the same as the builtin."""
    model = load_model("ivanovs2")
    p = tmp_path / "copy.cfg"
    dump_model(model, p)
    rc = cli.main(["shepp", str(p), "--q", "1.8", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "shepp_q1.8.json").read_text())
    assert abs(doc["states"][0]["c"] - 0.22599) < 1e-4
