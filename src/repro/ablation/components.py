"""Catalog of ablatable model components.

A *component* is one machine phenomenon the simulator models beyond the
flat cost coefficients — exactly the behaviours the paper's §4–5 blame
for the models' prediction errors.  Every component maps to a
``Machine.PHENOMENA`` entry, so the catalog is *derived* from the
machine classes at import time: a phenomenon added to a machine without
a catalog entry (or vice versa) fails loudly, and the consistency is
also asserted by the test suite.

Component names are globally unique (each machine uses distinct
phenomenon names), so a component is addressed by its bare name on the
CLI and in ``POST /ablate`` bodies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bounds.cells import SCOREBOARD_CELLS
from ..core.errors import AblationError
from ..machines import MACHINES

__all__ = ["Component", "COMPONENTS", "resolve_cells", "resolve_components"]


@dataclass(frozen=True)
class Component:
    """One toggleable machine phenomenon."""

    #: globally unique name (== the machine's ``PHENOMENA`` entry).
    name: str
    #: machine whose behaviour the component describes.
    machine: str
    #: paper section that measures the phenomenon.
    paper: str
    #: one-line description (CLI/doc rendering).
    summary: str

    def to_dict(self) -> dict:
        return {"name": self.name, "machine": self.machine,
                "paper": self.paper, "summary": self.summary}


#: prose per phenomenon; the machine association comes from the classes.
_DETAILS = {
    "endpoint-contention": (
        "§5.1, Fig. 4",
        "a CM-5 node services one incoming message at a time, so "
        "unstaggered schedules stall senders at hot destinations"),
    "comm-staggering": (
        "§5.1",
        "staggered schedules avoid the CM-5's endpoint hot spots; "
        "ablated, staggering buys nothing"),
    "cache-effects": (
        "§4.1.1, Fig. 4/9",
        "the CM-5 local matmul rate depends on whether the working set "
        "fits the 64 KB cache (3.8-7.4 Mflops)"),
    "cube-discount": (
        "§5.1",
        "single-bit-XOR permutations route conflict-free through the "
        "MasPar router at ~45% of the random-permutation cost"),
    "partial-permutation": (
        "§3.1, Fig. 2",
        "a MasPar step with P' active PEs costs T_unb(P') = 0.84 P' + "
        "11.8 sqrt(P') + 73.3 us, not the full-permutation price"),
    "receiver-serialisation": (
        "§5.1, Fig. 1",
        "messages converging on one MasPar PE serialise at the "
        "destination (~30 us per extra message)"),
    "cluster-channels": (
        "§3.1, Fig. 1",
        "16 MasPar PEs share one router channel, so destinations piling "
        "into a cluster contend for it"),
    "sync-loss": (
        "§5.1, Fig. 7",
        "GCel processors drift out of sync without barriers; past ~300 "
        "back-to-back messages PVM buffering collapses super-linearly"),
    "incast-collapse": (
        "§8 extension (modern profile)",
        "many senders converging on one fat-tree receiver collapse its "
        "ingress link: the hot node pays extra per word above the "
        "machine-wide average"),
    "adaptive-routing": (
        "§8 extension (modern profile)",
        "adaptive routing on a full-bisection fat tree spreads balanced "
        "permutation traffic over redundant paths (~30% discount)"),
}


def _build_catalog() -> dict[str, Component]:
    catalog: dict[str, Component] = {}
    for machine_name, cls in MACHINES.items():
        for phenomenon in cls.PHENOMENA:
            if phenomenon in catalog:
                raise AblationError(
                    f"phenomenon name {phenomenon!r} reused by "
                    f"{machine_name!r} and {catalog[phenomenon].machine!r}")
            try:
                paper, summary = _DETAILS[phenomenon]
            except KeyError:
                raise AblationError(
                    f"phenomenon {phenomenon!r} of machine "
                    f"{machine_name!r} has no catalog entry") from None
            catalog[phenomenon] = Component(
                name=phenomenon, machine=machine_name,
                paper=paper, summary=summary)
    return catalog


#: name -> component, in machine-registry then ``PHENOMENA`` order.
COMPONENTS: dict[str, Component] = _build_catalog()


def resolve_components(names=None) -> list[Component]:
    """Validate component ``names`` (None = all), catalog order kept.

    Duplicates collapse; unknown names raise :class:`AblationError`
    listing the catalog.
    """
    if names is None:
        return list(COMPONENTS.values())
    wanted = set()
    for name in names:
        if name not in COMPONENTS:
            known = ", ".join(COMPONENTS)
            raise AblationError(
                f"unknown component {name!r}; known: {known}")
        wanted.add(name)
    return [c for c in COMPONENTS.values() if c.name in wanted]


def resolve_cells(names=None) -> list[str]:
    """Validate scoreboard cell ``names`` (None = all), matrix order kept."""
    if names is None:
        return list(SCOREBOARD_CELLS)
    wanted = set()
    for name in names:
        if name not in SCOREBOARD_CELLS:
            known = ", ".join(SCOREBOARD_CELLS)
            raise AblationError(f"unknown cell {name!r}; known: {known}")
        wanted.add(name)
    return [c for c in SCOREBOARD_CELLS if c in wanted]
