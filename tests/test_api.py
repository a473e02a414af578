"""Public surface: every export resolves, and removed names stay gone."""

import importlib
import inspect
import pkgutil

import pytest

import mapstop

MODULES = ["mapstop"] + [
    f"mapstop.{m.name}" for m in pkgutil.iter_modules(mapstop.__path__)
    if not m.ispkg
]

REMOVED = {
    "mapstop.scale": ["DiagLimit", "w_prime_zero_plus", "SPURIOUS_TOL",
                      "eval_z_prime", "CubicSpline", "ROOT_SEP_TOL"],
    "mapstop.fluctuation": ["FirstPassageRep", "first_passage_rep", "COND_LIMIT",
                            "_w_inverse_at"],
    "mapstop.stopping": ["regime_report", "RegimeReport", "StateRegime", "value",
                         "UNBOUNDED"],
    "mapstop.model": ["path_classes", "big_psi_deriv", "validate", "Diagnostic",
                      "esscher_tilt"],
    "mapstop": ["validate", "Diagnostic", "esscher_tilt"],
    "mapstop.cli": ["_load"],
    "mapstop.errors": ["ConstraintViolation", "DivisionNearZero", "SingularScaleMatrix"],
    "mapstop.simulate": ["_gain_values"],
}


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(name)
    for entry in getattr(mod, "__all__", ()):
        assert hasattr(mod, entry), f"{name}.__all__ lists missing {entry!r}"


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_names_are_gone(name):
    mod = importlib.import_module(name)
    for entry in REMOVED[name]:
        assert not hasattr(mod, entry), f"{name}.{entry} should be gone"
        assert entry not in getattr(mod, "__all__", ())


def test_removed_members_are_gone():
    from mapstop.fluctuation import one_sided_up
    from mapstop.jumps import JumpLaw
    from mapstop.model import LevyComponent
    from mapstop.scale import ScaleTable, SpectralRep
    from mapstop.simulate import sample_path
    from mapstop.stopping import GainSpec, StopSolution

    for attr in ("w_at", "z_at", "u_at", "_mat_at", "step",
                 "w_row_at", "z_row_at", "_check_range",
                 "rows_at", "from_csv", "x_max"):
        assert not hasattr(ScaleTable, attr)
    assert list(inspect.signature(ScaleTable).parameters) == ["q", "grid", "w", "z"]
    assert list(inspect.signature(one_sided_up).parameters) == ["model", "q", "x", "a"]
    assert not hasattr(GainSpec, "custom")
    assert not {"table", "valid"} & set(StopSolution.__dataclass_fields__)
    assert not {"s_grid", "f_table", "fp_table"} & set(GainSpec.__dataclass_fields__)
    assert "start_tag" not in inspect.signature(sample_path).parameters
    assert not {"rational", "transform_deriv", "tilt"} & set(dir(JumpLaw))
    assert not hasattr(LevyComponent, "psi_deriv")
    assert "vectors" not in SpectralRep.__dataclass_fields__
