"""Declarative campaign specs: a parameter study as one artifact.

A :class:`CampaignSpec` names a full parameter study — the grid of
(N, Tp, Tc, Tr) axis values, a contiguous seed range, the horizon,
direction, and engine — as one small, serializable value.  The spec
never *holds* its jobs: :meth:`CampaignSpec.jobs` expands the grid
lazily into content-addressed
:class:`~repro.parallel.job.SimulationJob` specs, so a million-point
study costs a few hundred bytes on disk and streams through the
orchestrator without ever materializing.

Expansion order is part of the contract: axes vary in declaration
order (``n_nodes`` slowest, then ``tp``, ``tc``, ``tr``), seeds
innermost.  Every host expanding the same spec therefore enumerates
the same jobs in the same order, which is what makes the shard map
(:mod:`repro.campaign.shard`) a pure function of the spec.

Specs round-trip through JSON (always) and TOML (read requires
``tomllib``, Python 3.11+; writing is hand-emitted and works
everywhere).  The ``campaign_id`` — a content hash of the canonical
spec dict plus :data:`~repro.parallel.job.MODEL_VERSION` — names the
study in journals, progress reports, and result tables.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

try:  # Python 3.11+; TOML *reading* degrades gracefully without it.
    import tomllib
except ImportError:  # pragma: no cover - exercised only on 3.10
    tomllib = None  # type: ignore[assignment]

from ..core.engines import check_engine_topology, resolve_engine
from ..core.parameters import RouterTimingParameters
from ..parallel.job import MODEL_VERSION, SimulationJob

__all__ = ["CampaignSpec", "load_spec"]

_DIRECTIONS = ("up", "down")


def _axis(name: str, values, kind) -> tuple:
    """Normalize one grid axis: scalar -> 1-tuple, sequence -> tuple."""
    if isinstance(values, (int, float)) and not isinstance(values, bool):
        values = (values,)
    if isinstance(values, str) or not isinstance(values, Sequence):
        raise ValueError(f"axis {name!r} must be a number or a sequence")
    out = tuple(kind(v) for v in values)
    if not out:
        raise ValueError(f"axis {name!r} must not be empty")
    if len(set(out)) != len(out):
        raise ValueError(f"axis {name!r} has duplicate values")
    return out


@dataclass(frozen=True)
class CampaignSpec:
    """One parameter study: grid axes x a seed range x run settings.

    Attributes
    ----------
    name:
        Human-readable study name (letters, digits, ``-``/``_``);
        lands in journals, reports, and progress lines.
    n_nodes, tp, tc, tr:
        Grid axes.  Each accepts a scalar or a sequence of values; the
        grid is the full cross product.  Every grid point must be a
        valid :class:`~repro.core.parameters.RouterTimingParameters`.
    seed_start, seed_count:
        The contiguous seed range ``[seed_start, seed_start +
        seed_count)`` run at every grid point.
    horizon:
        Simulation horizon in seconds.
    direction:
        ``"up"`` (time to synchronize) or ``"down"`` (time to break
        up), as in :class:`~repro.parallel.job.SimulationJob`.
    engine:
        Simulation engine for every job (engines are bit-identical,
        so this is a speed knob, never a science knob).
    topology:
        Coupling graph for every job, in
        :func:`repro.topo.parse_topology` grammar; normalized to
        canonical form.  ``"clique"`` (the default) serializes exactly
        as before the field existed, so pre-topology campaign ids —
        and every cached job under them — are unchanged.
    """

    name: str
    n_nodes: tuple[int, ...]
    tp: tuple[float, ...]
    tc: tuple[float, ...]
    tr: tuple[float, ...]
    seed_count: int
    horizon: float
    seed_start: int = 1
    direction: str = "up"
    engine: str = "cascade"
    topology: str = "clique"

    def __post_init__(self) -> None:
        if not self.name or not all(
            ch.isalnum() or ch in "-_." for ch in self.name
        ):
            raise ValueError(
                "campaign name must be non-empty and use only letters, "
                "digits, '-', '_', '.'"
            )
        object.__setattr__(self, "n_nodes", _axis("n_nodes", self.n_nodes, int))
        object.__setattr__(self, "tp", _axis("tp", self.tp, float))
        object.__setattr__(self, "tc", _axis("tc", self.tc, float))
        object.__setattr__(self, "tr", _axis("tr", self.tr, float))
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        if not math.isfinite(self.horizon) or self.horizon <= 0:
            raise ValueError("horizon must be positive and finite")
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; "
                f"known: {', '.join(_DIRECTIONS)}"
            )
        resolve_engine(self.engine)
        from ..topo import ensure_spec

        object.__setattr__(
            self, "topology", ensure_spec(self.topology).canonical()
        )
        # Axis-level validation catches bad values without expanding
        # the grid; cross-axis constraints (Tr <= Tp) are checked on
        # the extreme pairing, which bounds every grid point.
        for n in self.n_nodes:
            if n < 1:
                raise ValueError("n_nodes values must be >= 1")
        for value, label in ((min(self.tp), "tp"),):
            if value <= 0:
                raise ValueError(f"{label} values must be positive")
        if min(self.tc) < 0 or min(self.tr) < 0:
            raise ValueError("tc and tr values must be non-negative")
        RouterTimingParameters(
            max(self.n_nodes), min(self.tp), max(self.tc), max(self.tr)
        )
        check_engine_topology(self.engine, self.topology, self.n_nodes)

    # -- size and identity ----------------------------------------------------

    @property
    def point_count(self) -> int:
        """Grid points (seed range excluded)."""
        return len(self.n_nodes) * len(self.tp) * len(self.tc) * len(self.tr)

    @property
    def total_jobs(self) -> int:
        """Every job the campaign expands to, without expanding it."""
        return self.point_count * self.seed_count

    @property
    def seeds(self) -> range:
        return range(self.seed_start, self.seed_start + self.seed_count)

    def campaign_id(self) -> str:
        """Content hash naming this study (folds in the model version).

        Two hosts holding byte-different spec files that parse to the
        same spec agree on the id — it hashes the canonical dict, not
        the file.
        """
        payload = json.dumps(
            {"campaign": self.to_dict(), "model_version": MODEL_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    # -- lazy expansion -------------------------------------------------------

    def points(self) -> Iterator[RouterTimingParameters]:
        """The grid points, in canonical axis order."""
        for n in self.n_nodes:
            for tp in self.tp:
                for tc in self.tc:
                    for tr in self.tr:
                        yield RouterTimingParameters(n, tp, tc, tr)

    def jobs(self) -> Iterator[SimulationJob]:
        """Every job of the study, lazily, in canonical order.

        Canonical order is grid points in axis order with seeds
        innermost — identical on every host, which the shard map and
        the resumability story both rely on.
        """
        for params in self.points():
            for seed in self.seeds:
                yield SimulationJob.from_params(
                    params,
                    seed=seed,
                    horizon=self.horizon,
                    direction=self.direction,
                    engine=self.engine,
                    topology=self.topology,
                )

    def jobs_for_point(self, params: RouterTimingParameters) -> list[SimulationJob]:
        """The seed family of one grid point (used by the reporter)."""
        return [
            SimulationJob.from_params(
                params,
                seed=seed,
                horizon=self.horizon,
                direction=self.direction,
                engine=self.engine,
                topology=self.topology,
            )
            for seed in self.seeds
        ]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-dict form (stable across sessions).

        ``topology`` appears only when non-default so pre-topology
        campaign ids are preserved byte for byte.
        """
        data = {
            "name": self.name,
            "n_nodes": list(self.n_nodes),
            "tp": list(self.tp),
            "tc": list(self.tc),
            "tr": list(self.tr),
            "seed_start": self.seed_start,
            "seed_count": self.seed_count,
            "horizon": self.horizon,
            "direction": self.direction,
            "engine": self.engine,
        }
        if self.topology != "clique":
            data["topology"] = self.topology
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        if not isinstance(data, dict):
            raise ValueError("campaign spec must be a mapping")
        known = {
            "name", "n_nodes", "tp", "tc", "tr", "seed_start",
            "seed_count", "horizon", "direction", "engine", "topology",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec field(s): {', '.join(unknown)}")
        missing = sorted(
            {"name", "n_nodes", "tp", "tc", "tr", "seed_count", "horizon"}
            - set(data)
        )
        if missing:
            raise ValueError(f"campaign spec missing field(s): {', '.join(missing)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        try:
            data = json.loads(text)
        except ValueError as error:
            raise ValueError(f"campaign spec is not valid JSON: {error}")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Hand-emitted TOML (writing needs no parser, so no gating)."""
        lines = ["[campaign]"]
        for key, value in self.to_dict().items():
            if isinstance(value, str):
                lines.append(f'{key} = "{value}"')
            elif isinstance(value, list):
                lines.append(f"{key} = [{', '.join(repr(v) for v in value)}]")
            else:
                lines.append(f"{key} = {value!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_toml(cls, text: str) -> "CampaignSpec":
        if tomllib is None:
            raise ValueError(
                "reading TOML campaign specs needs Python 3.11+ (tomllib); "
                "use a JSON spec instead"
            )
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as error:
            raise ValueError(f"campaign spec is not valid TOML: {error}")
        table = data.get("campaign", data)
        return cls.from_dict(table)

    def save(self, path: str | os.PathLike) -> Path:
        """Write the spec to ``path`` (format from the suffix)."""
        target = Path(path)
        if target.suffix == ".toml":
            target.write_text(self.to_toml())
        else:
            target.write_text(self.to_json())
        return target


def load_spec(path: str | os.PathLike) -> CampaignSpec:
    """Read a campaign spec file; ``.toml`` parses as TOML, else JSON."""
    source = Path(path)
    text = source.read_text()
    if source.suffix == ".toml":
        return CampaignSpec.from_toml(text)
    return CampaignSpec.from_json(text)
