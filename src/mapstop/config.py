"""Model configuration files.

A model is a JSON document with keys:

    states        number of modulator states N
    Q             rate matrix, row-major list of N*N reals
    drift         list of N reals
    sigma2        list of N reals
    jumps         list of {state, rate, kind, shape, jump_rate}
    switch_jumps  list of {from, to, kind, shape, jump_rate}

kind is one of none / exponential / erlang / mixture; shape is the Erlang
phase count (ignored for exponential); jump_rate is the Erlang rate.  A
mixture instead carries components: [{weight, kind, shape, jump_rate}].
States are 1-based in files.

The two bundled examples are resolvable by bare name (wiener2, ivanovs2).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ModelShapeMismatch
from .jumps import NONE_LAW, JumpLaw
from .model import LevyComponent, MapModel

__all__ = ["load_model", "dump_model", "builtin_names"]

_BUILTIN_PACKAGE = "mapstop.models"


def builtin_names():
    out = []
    for item in resources.files(_BUILTIN_PACKAGE).iterdir():
        if item.name.endswith(".cfg"):
            out.append(item.name[:-4])
    return sorted(out)


def _law_from_entry(entry) -> JumpLaw:
    kind = entry.get("kind", "none")
    if kind == "none":
        return NONE_LAW
    if kind == "exponential":
        return JumpLaw.exponential(entry["jump_rate"])
    if kind == "erlang":
        return JumpLaw.erlang(entry.get("shape", 1), entry["jump_rate"])
    if kind == "mixture":
        parts = []
        for comp in entry["components"]:
            shape = comp.get("shape", 1) if comp.get("kind", "erlang") != "exponential" else 1
            parts.append((comp["weight"], shape, comp["jump_rate"]))
        return JumpLaw.mixture(parts)
    raise ModelShapeMismatch(f"unknown jump kind {kind!r}")


def _law_to_entry(law: JumpLaw):
    if law.is_none:
        return {"kind": "none"}
    if len(law.components) == 1:
        w, k, mu = law.components[0]
        if k == 1:
            return {"kind": "exponential", "jump_rate": mu}
        return {"kind": "erlang", "shape": k, "jump_rate": mu}
    return {
        "kind": "mixture",
        "components": [
            {"weight": w, "kind": "erlang", "shape": k, "jump_rate": mu}
            for w, k, mu in law.components
        ],
    }


def load_model(source) -> MapModel:
    """Load a MapModel from a path, a bare builtin name, or a mapping."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists() and "/" not in str(source):
            name = str(source)
            if name.endswith(".cfg"):
                name = name[:-4]
            if name in builtin_names():
                text = resources.files(_BUILTIN_PACKAGE).joinpath(name + ".cfg").read_text()
                doc = json.loads(text)
                return _model_from_doc(doc)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            raise ModelShapeMismatch(
                f"model file {source!r} not found (builtins: {', '.join(builtin_names())})"
            ) from None
        except json.JSONDecodeError as exc:
            raise ModelShapeMismatch(f"model file {source}: {exc}") from exc
        return _model_from_doc(doc)
    return _model_from_doc(dict(source))


def _model_from_doc(doc) -> MapModel:
    """Build the model; a missing key or a bad value is ModelShapeMismatch."""
    try:
        n = int(doc["states"])
        Q = np.array(doc["Q"], dtype=float).reshape(n, n)
        drift = [float(v) for v in doc["drift"]]
        sigma2 = [float(v) for v in doc["sigma2"]]
        if len(drift) != n or len(sigma2) != n:
            raise ModelShapeMismatch("drift/sigma2 length does not match states")
        jump_lists = [[] for _ in range(n)]
        for entry in doc.get("jumps", []):
            i = int(entry["state"]) - 1
            if not 0 <= i < n:
                raise ModelShapeMismatch(f"jump entry references state {i + 1}")
            jump_lists[i].append((float(entry["rate"]), _law_from_entry(entry)))
        comps = tuple(
            LevyComponent(drift=drift[i], sigma2=sigma2[i], jumps=tuple(jump_lists[i]))
            for i in range(n)
        )
        laws = [[NONE_LAW] * n for _ in range(n)]
        for entry in doc.get("switch_jumps", []):
            i, j = int(entry["from"]) - 1, int(entry["to"]) - 1
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ModelShapeMismatch(f"switch jump entry ({i + 1},{j + 1}) out of range")
            laws[i][j] = _law_from_entry(entry)
        return MapModel(Q, comps, tuple(tuple(row) for row in laws))
    except (KeyError, ValueError, TypeError) as exc:
        raise ModelShapeMismatch(f"bad model document: {exc}") from exc


def dump_model(model: MapModel, path):
    """Write a model back out in the documented schema."""
    n = model.n_states
    doc = {
        "states": n,
        "Q": [float(v) for v in model.q_matrix.ravel()],
        "drift": [c.drift for c in model.components],
        "sigma2": [c.sigma2 for c in model.components],
        "jumps": [],
        "switch_jumps": [],
    }
    for i, comp in enumerate(model.components):
        for rate, law in comp.jumps:
            entry = {"state": i + 1, "rate": rate}
            entry.update(_law_to_entry(law))
            doc["jumps"].append(entry)
    for i in range(n):
        for j in range(n):
            law = model.switch_jumps[i][j]
            if not law.is_none:
                entry = {"from": i + 1, "to": j + 1}
                entry.update(_law_to_entry(law))
                doc["switch_jumps"].append(entry)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
