"""repro.service — batched, cached prediction serving over HTTP/JSON.

The cost oracle as a subsystem: ``repro serve`` exposes predictions,
model comparisons and experiment results on an asyncio HTTP server whose
hot path micro-batches concurrent requests onto the vector engine's
batched pricers, with an LRU over the calibration memo.  ``repro serve
--processes N`` scales that out to a pre-fork fleet sharing one
metrics board (:mod:`.fleet`, :mod:`.shm`).  ``repro
loadtest`` is the closed-loop client harness.  See docs/SERVICE.md.
"""

from .batcher import LRUCache, MicroBatcher
from .fleet import run_fleet
from .loadtest import (LoadtestReport, append_service_record, parse_mix,
                       render_report, run_loadtest)
from .metrics import (MetricsRegistry, ServiceMetrics, merge_snapshots,
                      render_snapshot)
from .oracle import (ALGORITHMS, MODELS, OracleError, PredictRequest,
                     compare_offline, evaluate_batch, predict_offline)
from .server import (ReproService, ServiceApp, ServiceConfig, ServiceThread,
                     run_service)
from .shm import MetricsBoard

__all__ = [
    "LRUCache", "MicroBatcher",
    "run_fleet",
    "LoadtestReport", "append_service_record", "parse_mix",
    "render_report", "run_loadtest",
    "MetricsRegistry", "ServiceMetrics", "merge_snapshots",
    "render_snapshot",
    "ALGORITHMS", "MODELS", "OracleError", "PredictRequest",
    "compare_offline", "evaluate_batch", "predict_offline",
    "ReproService", "ServiceApp", "ServiceConfig", "ServiceThread",
    "run_service",
    "MetricsBoard",
]
