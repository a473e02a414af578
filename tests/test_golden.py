"""Golden fingerprints of the Monte Carlo engine.

Each case hashes the float64 bytes of a seeded estimate (values, standard
errors and effective path counts) or of a sampled trajectory, so any
change to the draw protocol, the event order or the floating-point
expressions of the engine shows up here, not only run-to-run drift.  One
more case pins the Shepp-gain curves of the boundary ODE, which the
stopped-gain estimates can take as their boundary.  That pin also
follows the last bits of the spectral core, so a change there may re-pin
it when it states the largest change in the curves.

The pins depend on numpy's ``exp`` and ``log1p`` (the exponential
clocks and the jump sizes) and scipy's ``ndtri`` (the inverse normal
behind every Euler increment) as well as on the engine.  Five of them
(``exit_wiener2_q5``, ``mgf``, ``sample_path``, ``stopped_constant`` and
``stopped_curves``) hold only where numpy dispatches ``exp`` and
``log1p`` to its AVX-512 kernels, which differ in the last bit from the
AVX2 and baseline kernels on a few percent of inputs.  Only a change
that declares a change to the draw protocol may re-pin them; a refactor
or speed-up must leave every digest as it is.
"""

import hashlib

import numpy as np
import pytest

from mapstop.config import load_model
from mapstop.simulate import (SimConfig, estimate_exit, estimate_stopped_gain,
                              sample_path, verify_mgf)
from mapstop.stopping import GainSpec, solve_boundary_ode

CFG = SimConfig(n_paths=100, master_seed=20260822)
TRACE_CFG = SimConfig(horizon=3.0, n_paths=100, master_seed=7)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _estimates(*ests):
    out = []
    for e in ests:
        out += [e.value, e.std_error, e.n_effective]
    return out


def _exit(name, q, x, a):
    return _estimates(*estimate_exit(load_model(name), CFG, q, x, a))


def _mgf():
    est, _ = verify_mgf(load_model("ivanovs2"), CFG, 0.5, 1.0)
    return _estimates(est)


def _stopped(boundary, start, gain=None, q=1.8):
    gain = GainSpec.shepp([1.0, 1.2]) if gain is None else gain
    return _estimates(estimate_stopped_gain(load_model("ivanovs2"), CFG, q,
                                            gain, boundary, start))


def _capped():
    return GainSpec.capped([1.0, 1.2], cap=2.0, eps=1.4)


def _stopped_curves():
    curves = solve_boundary_ode(load_model("ivanovs2"), 1.8, _capped(),
                                (0.9, 1.2), init=[0.3, 0.25])
    return _stopped(curves, (0.9, 0.9, 0, 0), gain=_capped())


def _shepp_curves():
    curves = solve_boundary_ode(load_model("ivanovs2"), 1.8,
                                GainSpec.shepp([1.0, 1.2]), (0.0, 0.2),
                                init=[0.2, 0.15])
    out = []
    for c in curves:
        out += [c.s, c.g, c.stiff, c.completed, len(c.violations)]
    return out


def _traces():
    out = []
    for name, idx, x0, i in (("ivanovs2", 0, 0.0, 0), ("ivanovs2", 17, 0.3, 1),
                             ("ivanovs2", 99, -0.2, 1), ("wiener2", 0, 0.0, 0),
                             ("wiener2", 5, 0.5, 1), ("wiener2", 42, 1.0, 0)):
        out.append(sample_path(load_model(name), TRACE_CFG, idx, x0=x0,
                               start_state=i))
    return out


CASES = {
    "exit_ivanovs2": lambda: _exit("ivanovs2", 1.5, 0.5, 1.0),
    "exit_wiener2_q5": lambda: _exit("wiener2", 5.0, 0.5, 1.0),
    "exit_q0": lambda: _exit("ivanovs2", 0.0, 0.5, 0.6),
    "exit_start_at_a": lambda: _exit("ivanovs2", 1.5, 1.0, 1.0),
    "exit_start_below_0": lambda: _exit("ivanovs2", 3.0, -0.2, 1.0),
    "mgf": _mgf,
    "stopped_constant": lambda: _stopped([0.2, 0.15], (0.0, 0.0, 0, 0)),
    "stopped_curves": _stopped_curves,
    "stopped_callable": lambda: _stopped(
        lambda s, j: 0.15 + 0.05 * np.tanh(s) * (j + 1), (0.0, 0.0, 1, 1)),
    "stopped_capped": lambda: _stopped([0.3, 0.25], (0.9, 0.9, 0, 0),
                                       gain=_capped()),
    "stopped_q0": lambda: _stopped([0.3, 0.25], (0.9, 0.9, 0, 0),
                                   gain=_capped(), q=0.0),
    "stopped_wide": lambda: _stopped([1.5, 1.2], (0.0, 0.0, 0, 1)),
    "stopped_below_max": lambda: _stopped([0.2, 0.15], (-0.1, 0.0, 1, 0)),
    "shepp_curves": _shepp_curves,
    "sample_path": _traces,
}

GOLDEN = {
    "exit_ivanovs2":
        "c0f0730686e21cd30302f6bc2a716759262f0243030626f27ec91fa2e0ee96ef",
    "exit_wiener2_q5":
        "531e8433c2187d89f3da7028105ced68353108e8e2c361d3a9fb367ebb957b12",
    "exit_q0":
        "507cc263657f0a09f234a1174e5ecea2075e7dba2836928f251d9ce89e52ee3d",
    "exit_start_at_a":
        "628a7e3e6933133d1fc975216a0d872ebddc9ef9ce755aca07ab5933f7c81e4d",
    "exit_start_below_0":
        "27f08f93c948b36c2cdc1ace9caadd81443410095a891ac782bfeec4f1428433",
    "mgf":
        "6db54032e85c72b126f2827ebbdd5badbd64e8cba2f797da98f24979b45f0a86",
    "stopped_constant":
        "ec946a2f45a9af07e270a917bc017e96bf7d96f184991c0c7e82a9522f1e5d29",
    "stopped_curves":
        "45098cff5be1ae2d56d616ccb4af6a8649723e7c015909d9ff3fadfa42651476",
    "stopped_callable":
        "5ab3f7e5edce347fad6a8d73316afb2a020c3e9093739f29fd03ca8fb6d74f9f",
    "stopped_capped":
        "8bfa6c3126d9002e054cb745a8e611502930f4e5bb044c4044e312ee7b3027ee",
    "stopped_q0":
        "91792b629cac16c674a570081e8e7cc385cd418bf7a289050955fd0f2a5038c9",
    "stopped_wide":
        "37e88b32f1e73e772fa3a6c72b711d829b5958daea577a16875f88327dee6ad1",
    "stopped_below_max":
        "0febf2e0a3dec204502552b944b53fd1c812ee487ef62ae889766142ec599bb8",
    "shepp_curves":
        "69cecb96462019f2343bd556b00a7ab67334561a0ef86f0b388e2205d4224ee6",
    "sample_path":
        "2617cc9c86f53abb13084d32da44deac6c8258c1a37e8b343a1dd1c42239f351",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert _digest(*CASES[case]()) == GOLDEN[case]
