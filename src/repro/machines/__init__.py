"""Simulated experimental platforms (the paper's Section 3 machines)."""

from .base import Machine
from .cm5 import CM5
from .gcel import GCel
from .maspar import MasParMP1
from .modern import ModernCluster
from .t800 import T800Grid

__all__ = ["Machine", "MasParMP1", "GCel", "CM5", "T800Grid",
           "ModernCluster", "make_machine", "MACHINES", "machine_catalog"]

MACHINES = {
    "maspar": MasParMP1,
    "gcel": GCel,
    "cm5": CM5,
    "t800": T800Grid,
    "modern": ModernCluster,
}

#: default partition size of each platform (the paper's configurations).
DEFAULT_P = {"maspar": 1024, "gcel": 64, "cm5": 64, "t800": 64,
             "modern": 256}

#: one-line behavioural summary per platform (shared by ``repro
#: machines`` and the service's ``GET /machines``).
BLURBS = {
    "maspar": "1024-PE SIMD, circuit-switched delta router, one "
              "channel per 16-PE cluster; cheap cube permutations, "
              "strong partial-permutation discount",
    "gcel": "64-node T805 mesh under HPVM; per-message software "
            "costs dominate (g~4480), scatters ~9x cheaper, drifts "
            "out of sync without barriers",
    "cm5": "64-node fat tree (Split-C, no vector units); fine-grain "
           "messages ~9us, endpoint contention on unstaggered "
           "schedules, cache-sensitive local matmul",
    "t800": "64-node T800 grid under native Parix (the authors' "
            "earlier study [15]); store-and-forward per-hop costs "
            "make locality visible (extension)",
    "modern": "256-node fat-tree cluster, ~100 Gbit/s kernel-bypass "
              "links, wide-SIMD nodes; overhead-bound fine-grain "
              "traffic, incast collapse, adaptive-routing discount "
              "on permutations (extension)",
}


def machine_catalog() -> list[dict]:
    """Machine-readable platform descriptions (``repro machines --json``,
    ``GET /machines``)."""
    return [{
        "name": name,
        "class": cls.__name__,
        "default_P": DEFAULT_P[name],
        "simd": bool(cls.simd),
        "phenomena": list(cls.PHENOMENA),
        "summary": BLURBS[name],
    } for name, cls in MACHINES.items()]


def make_machine(name: str, *, seed: int = 0, **kwargs) -> Machine:
    """Instantiate a machine by its :data:`MACHINES` name: ``maspar``,
    ``gcel``, ``cm5``, ``t800`` or ``modern``."""
    try:
        cls = MACHINES[name]
    except KeyError:
        known = ", ".join(sorted(MACHINES))
        raise ValueError(f"unknown machine {name!r}; known: {known}") from None
    return cls(seed=seed, **kwargs)
