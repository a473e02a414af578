"""Fluctuation theory and drawdown stopping for spectrally negative MAPs."""

from .config import load_model, dump_model
from .jumps import JumpLaw
from .model import (
    LevyComponent,
    MapModel,
    big_psi,
    kappa,
    perron_vector,
    phi,
)
from .scale import ScaleTable, spectral_decompose
from .simulate import SimConfig, estimate_exit, estimate_stopped_gain, verify_mgf
from .stopping import GainSpec, solve_boundary_ode, solve_shepp

__version__ = "0.1.0"

__all__ = [
    "JumpLaw",
    "LevyComponent",
    "MapModel",
    "big_psi",
    "kappa",
    "perron_vector",
    "phi",
    "load_model",
    "dump_model",
    "spectral_decompose",
    "ScaleTable",
    "GainSpec",
    "solve_shepp",
    "solve_boundary_ode",
    "SimConfig",
    "estimate_exit",
    "estimate_stopped_gain",
    "verify_mgf",
]
