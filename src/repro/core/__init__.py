"""Core cost models and parameter sets — the paper's primary contribution.

Public surface:

* :class:`ModelParams`, :class:`UnbalancedCost`, :data:`PAPER_PARAMS` —
  Table 1 and the MasPar partial-permutation law;
* :class:`CommPhase`, :class:`Relation` — communication patterns and their
  ``(M, h1, h2)`` analysis;
* :class:`Trace`, :class:`Superstep` — execution traces;
* work descriptors (:class:`Flops`, :class:`RadixSort`, ...);
* the cost models :class:`BSP`, :class:`MPBSP`, :class:`MPBPRAM`,
  :class:`EBSP`, :class:`ScatterAwareBSP`;
* the closed-form predictions of paper §4 in :mod:`repro.core.predictions`.
"""

from .base import CostModel
from .bpram import MPBPRAM
from .bsf import BSF
from .bsp import BSP
from .ebsp import EBSP, LocalityAwareBSP, ScatterAwareBSP
from .logp import LogGP, LogP, LogPParams, logp_from_table1
from .errors import (
    CalibrationError,
    DeadlockError,
    ExperimentError,
    MailboxError,
    ModelError,
    ReproError,
    SimulationError,
    TraceError,
)
from .mp_bsp import MPBSP
from .pram import PRAM
from .params import PAPER_PARAMS, PAPER_UNBALANCED, ModelParams, UnbalancedCost, paper_params
from .relations import CommPhase, Relation
from .trace import Superstep, Trace
from .work import (
    Compare,
    Copy,
    Flops,
    Generic,
    MatmulBlock,
    Merge,
    RadixSort,
    Work,
    nominal_time,
)

__all__ = [
    "CostModel",
    "BSP",
    "MPBSP",
    "MPBPRAM",
    "BSF",
    "EBSP",
    "ScatterAwareBSP",
    "LocalityAwareBSP",
    "LogP",
    "LogGP",
    "LogPParams",
    "logp_from_table1",
    "PRAM",
    "ModelParams",
    "UnbalancedCost",
    "PAPER_PARAMS",
    "PAPER_UNBALANCED",
    "paper_params",
    "CommPhase",
    "Relation",
    "Trace",
    "Superstep",
    "Work",
    "Flops",
    "MatmulBlock",
    "RadixSort",
    "Merge",
    "Compare",
    "Copy",
    "Generic",
    "nominal_time",
    "ReproError",
    "ModelError",
    "TraceError",
    "SimulationError",
    "DeadlockError",
    "MailboxError",
    "CalibrationError",
    "ExperimentError",
]
