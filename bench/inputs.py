"""Seeded inputs for the benchmark workloads.

Models are produced as documents in the `mapstop.config` schema, so the
program receives only what `load_model` parses.  Everything here is plain
numpy and depends on no program code: the q placement and the reference
matrix exponent used by the checks are computed from the documents alone,
which keeps the inputs identical when the program changes.
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

BUILTINS = ("ivanovs2", "wiener2")


def builtin_doc(name: str) -> dict:
    """The shipped model file of a built-in, read as a plain document."""
    return json.loads(resources.files("mapstop.models").joinpath(name + ".cfg").read_text())


def workload_rng(seed: int, salt: str) -> np.random.Generator:
    """Independent stream per (seed, workload) pair."""
    return np.random.default_rng([int(seed), *salt.encode()])


def master_seed(seed: int, salt: str) -> int:
    """64-bit Monte Carlo master seed derived from the workload seed."""
    return int(workload_rng(seed, salt).integers(0, 2**63))


def random_doc(rng: np.random.Generator, n: int, slot: int) -> dict:
    """Random n-state model in the style of the test suite's generator.

    Upward-biased drifts, Gaussian variance from {0, 1/2, 1}, a
    compound-Poisson Erlang part (shape 1 to 3) in about 70% of the states
    and, in about half of the models, exponential switch jumps.

    The structure (which states are Gaussian, carry jumps or switch jumps,
    and the Erlang shapes) comes from a stream fixed by (n, slot); `rng`
    draws every rate.  Each seed then gives the slot a model of the same
    transform degree, so the cost of a pass differs between seeds through
    the parameters only.
    """
    shape_rng = np.random.default_rng([n, slot])
    Q = rng.uniform(0.3, 2.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    drift, sigma2, jumps = [], [], []
    for i in range(n):
        sigma2.append(float(shape_rng.choice([0.0, 1.0, 0.5])))
        drift.append(float(rng.uniform(0.5, 2.0)))
        if shape_rng.random() < 0.7:
            jumps.append({
                "state": i + 1,
                "rate": float(rng.uniform(0.3, 1.5)),
                "kind": "erlang",
                "shape": int(shape_rng.integers(1, 4)),
                "jump_rate": float(rng.uniform(1.5, 4.0)),
            })
    switch = []
    if shape_rng.random() < 0.5:
        for i in range(n):
            for j in range(n):
                if i != j and shape_rng.random() < 0.4:
                    switch.append({
                        "from": i + 1,
                        "to": j + 1,
                        "kind": "exponential",
                        "jump_rate": float(rng.uniform(1.5, 4.0)),
                    })
    return {
        "states": n,
        "Q": [float(v) for v in Q.ravel()],
        "drift": drift,
        "sigma2": sigma2,
        "jumps": jumps,
        "switch_jumps": switch,
    }


def _law_transform(entry: dict, z):
    """E[e^{z U}] for an exponential or Erlang entry (U <= 0)."""
    shape = entry.get("shape", 1) if entry["kind"] == "erlang" else 1
    mu = entry["jump_rate"]
    return (mu / (mu + z)) ** shape


def psi_matrix(doc: dict, z) -> np.ndarray:
    """Matrix exponent Psi(z) of a model document, computed independently."""
    n = doc["states"]
    Q = np.array(doc["Q"], dtype=float).reshape(n, n)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        out[i, i] = doc["drift"][i] * z + 0.5 * doc["sigma2"][i] * z * z + Q[i, i]
        for j in range(n):
            if i != j:
                out[i, j] = Q[i, j]
    for e in doc["jumps"]:
        i = e["state"] - 1
        out[i, i] += e["rate"] * (_law_transform(e, z) - 1.0)
    for e in doc["switch_jumps"]:
        i, j = e["from"] - 1, e["to"] - 1
        out[i, j] = Q[i, j] * _law_transform(e, z)
    return out


def perron_root(doc: dict, theta: float) -> float:
    """Leading real eigenvalue of Psi(theta) for real theta."""
    vals = np.linalg.eigvals(psi_matrix(doc, float(theta)))
    return float(vals[np.argmax(vals.real)].real)


def q_values(doc: dict, factors) -> list:
    """Discount rates placed relative to kappa(1).

    With kappa(1) >= 0.25, a factor below 1 gives an unbounded stopping
    problem (q < kappa(1)) and one above a bounded one.  A smaller
    kappa(1) is lifted to 0.25 so every q stays clear of 0.
    """
    base = max(perron_root(doc, 1.0), 0.25)
    return [float(f * base) for f in factors]
