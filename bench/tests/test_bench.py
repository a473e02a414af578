"""The benchmark's own tests: seeded inputs, metric names, and checks that
fail on deliberately perturbed outputs.

Run from the repository root with `python3 -m pytest bench/tests`.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

import inputs
import run
import workloads
from harness import Tracer
from mapstop import load_model, solve_shepp, spectral_decompose
from mapstop.fluctuation import one_sided_up, two_sided_down, two_sided_up

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
OFF = Tracer(False)


def _items(group, seed=1):
    return {it.name: it for it in getattr(workloads, group)(seed, OFF)}


def test_generator_is_deterministic_per_seed():
    assert workloads.sweep_docs(7) == workloads.sweep_docs(7)
    assert workloads.sweep_docs(7) != workloads.sweep_docs(8)
    assert workloads.oracle_docs(7) == workloads.oracle_docs(7)
    assert inputs.master_seed(7, "mc_exit") == inputs.master_seed(7, "mc_exit")
    assert inputs.master_seed(7, "mc_exit") != inputs.master_seed(8, "mc_exit")
    for build in workloads.ITEM_LISTS.values():
        assert [it.name for it in build(3, OFF)] == [it.name for it in build(3, OFF)]


def test_generated_models_load_and_match_the_reference_exponent():
    from mapstop.model import big_psi

    for name, doc in workloads.sweep_docs(5):
        model = load_model(name if name in inputs.BUILTINS else doc)
        for z in (0.3, 1.7):
            assert np.allclose(big_psi(model, z), inputs.psi_matrix(doc, z), atol=1e-12)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == dict(run.END_TO_END)
    assert layer == run.per_layer_units()
    for name in list(e2e) + list(layer) + list(run.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_sweep_check_flags_perturbed_outputs():
    items = _items("solve_sweep")
    it = next(v for k, v in items.items() if k.startswith("ivanovs2@"))
    out = it.run(OFF, {})
    assert it.check(out, {})[0]
    assert not it.check(dict(out, residues=out["residues"] * (1 + 1e-4)), {})[0]
    assert not it.check(dict(out, up=out["up"] * np.nan), {})[0]


def test_contour_check_flags_scaled_w():
    it = _items("oracle_contour")["ivanovs2.talbot@x0.5"]
    out = it.run(OFF, {})
    assert it.check(out, {})[0]
    assert not it.check({"w": out["w"] * (1 + 1e-4)}, {})[0]


def test_generator_check_flags_residual():
    it = _items("oracle_contour")["ivanovs2.generator"]
    out = it.run(OFF, {})
    assert it.check(out, {})[0]
    assert not it.check(dict(out, pos=np.asarray(out["pos"]) + 1e-3), {})[0]


def test_mc_exit_checks_flag_shifted_estimates():
    items = _items("mc_exit")
    model = load_model("ivanovs2")
    q, x, a = workloads.EXIT_Q, workloads.EXIT_X, workloads.EXIT_A
    rep = spectral_decompose(model, q)
    refs = (one_sided_up(model, q, x, a), two_sided_up(rep, x, a), two_sided_down(rep, x, a))
    out = {}
    for key, ref in zip(("id0", "id1", "id2"), refs):
        out[key], out[key + "_se"] = ref, np.full(ref.shape, 1e-3)
    check = items["ivanovs2.exit"].check
    assert check(out, {})[0]
    assert not check(dict(out, id1=refs[1] + 0.02), {})[0]

    ref = np.real(expm(inputs.psi_matrix(inputs.builtin_doc("ivanovs2"), workloads.MGF_Z)
                       * workloads.MGF_T))
    check = items["ivanovs2.mgf"].check
    assert check({"value": ref, "se": np.full(ref.shape, 1e-3)}, {})[0]
    assert not check({"value": ref + 0.02, "se": np.full(ref.shape, 1e-3)}, {})[0]


def test_stop_value_checks_flag_perturbed_outputs():
    items = _items("stop_value")
    outs = {"solve_shepp": items["solve_shepp"].run(OFF, {})}
    c = outs["solve_shepp"]["c"]
    assert items["solve_shepp"].check(outs["solve_shepp"], outs)[0]
    assert not items["solve_shepp"].check({"c": c + 1e-4}, outs)[0]

    for name in ("ode_shepp", "ode_capped"):
        ode = items[name].run(OFF, outs)
        assert items[name].check(ode, outs)[0], name
        assert not items[name].check(dict(ode, g0=ode["g0"] * (1 + 1e-4)), outs)[0], name

    v = solve_shepp(load_model("ivanovs2"), workloads.STOP_Q).value(0.0, 0.0, 0, 0)
    check = items["value_c.s0"].check
    assert check({"value": v, "se": 1e-3}, outs)[0]
    assert not check({"value": v + 0.1, "se": 1e-3}, outs)[0]

    outs["value_c.s0"] = {"value": 1.0, "se": 1e-3}
    for name in ("value_c+.s0", "value_ode.s0"):
        assert items[name].check({"value": 1.0, "se": 1e-3}, outs)[0], name
        assert not items[name].check({"value": 1.1, "se": 1e-3}, outs)[0], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_exit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
