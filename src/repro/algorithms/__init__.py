"""The paper's benchmark algorithms (Section 4), as SPMD vector programs.

Each algorithm is written once, as a lockstep vector program that runs
all ranks at once on stacked arrays; its ``run()`` records it into the
step-program IR and replays it (:func:`repro.simulator.run_lowered`).

* :mod:`~repro.algorithms.matmul` — 3D matrix multiplication (§4.1);
* :mod:`~repro.algorithms.bitonic` — Batcher's bitonic sort (§4.2);
* :mod:`~repro.algorithms.samplesort` — sample sort (§4.3);
* :mod:`~repro.algorithms.radix` — parallel integer radix sort
  (extension);
* :mod:`~repro.algorithms.apsp` — Floyd all-pairs shortest path (§4.4);
* :mod:`~repro.algorithms.lu` — blocked LU decomposition (extension);
* :mod:`~repro.algorithms.stencil` — 2-D Jacobi stencil (extension);
* :mod:`~repro.algorithms.primitives` — grid all-to-all and multi-scan;
* :mod:`~repro.algorithms.collectives` — vector and row broadcasts.
"""

from . import (apsp, bitonic, collectives, lu, matmul, primitives, radix,
               samplesort, stencil)

__all__ = ["matmul", "bitonic", "samplesort", "radix", "apsp", "lu",
           "primitives", "collectives", "stencil"]
