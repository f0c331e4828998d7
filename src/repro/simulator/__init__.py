"""SPMD discrete-event simulator.

The simulator executes real SPMD programs (Python generators operating on
NumPy data) on virtual processors while a machine model charges virtual
time — the substitute for the paper's MasPar / GCel / CM-5 testbeds.
"""

from ..core.work import WorkBatch
from .commands import SyncToken
from .context import ProcContext
from .engine import run_spmd
from .ir import IRStore, StepProgram, ir_store
from .lower import run_lowered
from .replay import replay
from .result import RunResult
from .vector import VectorContext, run_spmd_vector

__all__ = ["run_spmd", "run_spmd_vector", "run_lowered", "replay",
           "ProcContext", "VectorContext", "WorkBatch", "SyncToken",
           "RunResult", "StepProgram", "IRStore", "ir_store"]
