"""Fault plans: which named fault points fire, how often, and how.

A *fault point* is a named hook compiled into the runner and service
layers (worker spawn/exec, cache read/write, service dispatch).  A
:class:`FaultPlan` maps point names onto :class:`FaultSpec` activation
rules; with no plan installed every hook is a no-op costing one global
load.

Plan syntax (the ``--faults`` flag and ``$REPRO_FAULTS``)::

    point[:key=value[,key=value...]][;point2[:...]]

    worker-crash:p=0.2,seed=7
    cache-corrupt:count=1;dispatch-slow:p=0.5,delay=0.05

Keys: ``p`` (fire probability per visit, default 1), ``count`` (max
fires, default unlimited), ``seed`` (per-point RNG seed, default 0) and
``delay`` (seconds — the point sleeps instead of raising).  Decisions
are drawn from a per-point ``random.Random`` seeded by ``(seed,
point)``, so a plan replays the same schedule on every run: reproducing
a chaos failure needs only its plan string.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import FaultError

__all__ = ["FaultSpec", "FaultPlan", "KNOWN_POINTS"]

#: every compiled-in fault point, with where it bites.
KNOWN_POINTS: dict[str, str] = {
    "worker-crash": "pool worker raises before running its experiment",
    "worker-hang": "pool worker sleeps `delay` seconds before running",
    "spawn-crash": "pool worker initializer raises (pool comes up broken)",
    "spawn-slow": "pool worker initializer sleeps `delay` seconds",
    "cache-corrupt": "result-cache write flips bytes in the stored payload",
    "cache-truncate": "result-cache write truncates the stored entry",
    "cache-stale": "result-cache write records a bogus checksum",
    "dispatch-error": "service batch evaluation raises",
    "dispatch-slow": "service batch evaluation sleeps `delay` seconds",
    "lru-storm": "service prediction LRU fully evicted before the probe",
    "worker-exit": "fleet worker process dies (os._exit) mid-request",
    "handoff-loss": "accepted connection dropped before reading a request",
}


@dataclass(frozen=True)
class FaultSpec:
    """Activation rule for one fault point."""

    point: str
    probability: float = 1.0
    count: int | None = None
    seed: int = 0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            known = ", ".join(sorted(KNOWN_POINTS))
            raise FaultError(
                f"unknown fault point {self.point!r}; known points: {known}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"{self.point}: p must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 0:
            raise FaultError(
                f"{self.point}: count must be >= 0, got {self.count}")
        if self.delay_s < 0:
            raise FaultError(
                f"{self.point}: delay must be >= 0, got {self.delay_s}")


class FaultPlan:
    """An immutable set of :class:`FaultSpec`, one per point."""

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]" = ()):
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.point in self.specs:
                raise FaultError(f"duplicate fault point {spec.point!r}")
            self.specs[spec.point] = spec

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __contains__(self, point: str) -> bool:
        return point in self.specs

    def get(self, point: str) -> FaultSpec | None:
        return self.specs.get(point)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``point:k=v,...;point2:...`` plan syntax."""
        specs: list[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, args = chunk.partition(":")
            name = name.strip()
            kwargs: dict = {}
            if args.strip():
                for pair in args.split(","):
                    key, sep, raw = pair.partition("=")
                    key, raw = key.strip(), raw.strip()
                    if not sep or not raw:
                        raise FaultError(
                            f"{name}: malformed parameter {pair.strip()!r} "
                            "(want key=value)")
                    try:
                        if key == "p":
                            kwargs["probability"] = float(raw)
                        elif key == "count":
                            kwargs["count"] = int(raw)
                        elif key == "seed":
                            kwargs["seed"] = int(raw)
                        elif key == "delay":
                            kwargs["delay_s"] = float(raw)
                        else:
                            raise FaultError(
                                f"{name}: unknown parameter {key!r} "
                                "(want p, count, seed or delay)")
                    except ValueError:
                        raise FaultError(
                            f"{name}: {key}={raw!r} is not a number") \
                            from None
            specs.append(FaultSpec(point=name, **kwargs))
        if not specs:
            raise FaultError(f"empty fault plan {text!r}")
        return cls(specs)

    def render(self) -> str:
        """The canonical plan string (parse/render round-trips)."""
        parts = []
        for spec in self.specs.values():
            args = [f"p={spec.probability:g}"]
            if spec.count is not None:
                args.append(f"count={spec.count}")
            args.append(f"seed={spec.seed}")
            if spec.delay_s:
                args.append(f"delay={spec.delay_s:g}")
            parts.append(f"{spec.point}:{','.join(args)}")
        return ";".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.render()!r})"
