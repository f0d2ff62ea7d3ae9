"""Wavelet-packet reduction of polled switch registers, with a Gaussian
detector verifying that reduced registers keep their atypical behavior."""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    ContractError,
    InputError,
    InsufficientDataError,
    MonotonicityError,
    ParseError,
    PolicyError,
    RegwaveError,
    UnknownFamilyError,
    UnknownPortError,
)
from .gaussian import (
    AnomalyReport,
    GaussianModel,
    calibrate,
    detect,
    fit,
    select_threshold,
)
from .metrics import ComparisonReport
from .reducer import (
    ReducedRegister,
    compression_ratio,
    decompose,
    decompose_windows,
    synthesize,
    synthesize_windows,
)
from .telemetry import (
    AnomalyScenario,
    Burst,
    RegisterStore,
    SwitchSim,
    TrafficProfile,
    deltas,
    poll,
    select_server_ports,
)
from .wavelets import (
    FAMILIES,
    FilterPair,
    analysis_step,
    energy,
    make_filter_pair,
    synthesis_step,
)

__all__ = [
    "AlignmentError",
    "AnomalyReport",
    "AnomalyScenario",
    "Burst",
    "ComparisonReport",
    "ContractError",
    "FAMILIES",
    "FilterPair",
    "GaussianModel",
    "InputError",
    "InsufficientDataError",
    "MonotonicityError",
    "ParseError",
    "PolicyError",
    "ReducedRegister",
    "RegisterStore",
    "RegwaveError",
    "SwitchSim",
    "TrafficProfile",
    "UnknownFamilyError",
    "UnknownPortError",
    "analysis_step",
    "calibrate",
    "compression_ratio",
    "decompose",
    "decompose_windows",
    "deltas",
    "detect",
    "energy",
    "fit",
    "make_filter_pair",
    "poll",
    "select_server_ports",
    "select_threshold",
    "synthesis_step",
    "synthesize",
    "synthesize_windows",
]
