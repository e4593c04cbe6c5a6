"""Run configuration: one JSON document drives every command.

Keys carry explicit units in their names (frequency_ghz, tx_power_dbm,
spacing in wavelengths) so unit mistakes surface as key errors rather than
silent scale bugs. Serialization round-trips exactly and the canonical
JSON hash stamps every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .channel import ChannelModel, LinkBudget
from .geometry import ArrayGeometry, ElementPattern
from .scenario import ScenarioParams
from .shapes import PolyominoShape, alphabet, load_alphabet
from .tiling import Aperture


@dataclass(frozen=True)
class ApertureConfig:
    columns: int = 8
    rows: int = 12
    spacing_y_wavelengths: float = 0.5
    spacing_z_wavelengths: float = 0.7


@dataclass(frozen=True)
class BudgetConfig:
    # default noise floor: thermal at 20 MHz plus a 9 dB noise figure
    tx_power_dbm: float = 43.0
    noise_power_dbm: float = -92.0
    coverage_threshold_dbm: float = -120.0


def _from_mapping(cls, doc: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**doc)


@dataclass
class RunConfig:
    aperture: ApertureConfig = field(default_factory=ApertureConfig)
    scenario: ScenarioParams = field(
        default_factory=lambda: ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=200, users=16, seed=1
        )
    )
    pattern: ElementPattern = field(default_factory=ElementPattern)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    channel: ChannelModel = field(default_factory=ChannelModel)
    frequency_ghz: float = 3.5
    alphabet: str = "P"
    alphabet_file: str | None = None
    zf_condition_cap: float = 1e8
    workers: int = 0  # 0 = all available cores
    tiling_stride: int = 1
    output_dir: str = "out"

    # --- construction of the working objects ---

    def aperture_grid(self) -> Aperture:
        return Aperture(self.aperture.columns, self.aperture.rows)

    def geometry(self) -> ArrayGeometry:
        from .units import SPEED_OF_LIGHT_M_S

        f_hz = self.frequency_ghz * 1e9
        lam = SPEED_OF_LIGHT_M_S / f_hz
        return ArrayGeometry(
            columns=self.aperture.columns,
            rows=self.aperture.rows,
            spacing_y_m=self.aperture.spacing_y_wavelengths * lam,
            spacing_z_m=self.aperture.spacing_z_wavelengths * lam,
            bs_height_m=self.scenario.bs_height_m,
            frequency_hz=f_hz,
        )

    def link_budget(self) -> LinkBudget:
        return LinkBudget.from_dbm(
            self.budget.tx_power_dbm,
            self.budget.noise_power_dbm,
            self.budget.coverage_threshold_dbm,
        )

    def shapes(self) -> list[PolyominoShape]:
        if self.alphabet_file:
            return load_alphabet(self.alphabet_file)
        return alphabet(self.alphabet)

    def validate(self) -> None:
        shapes = self.shapes()
        elements = self.aperture.columns * self.aperture.rows
        max_size = max(s.size for s in shapes)
        min_tiles = elements // max_size
        if self.scenario.users > min_tiles:
            raise ValueError(
                f"{self.scenario.users} users exceed the minimum tile count "
                f"{min_tiles} (= {elements} elements / {max_size}-cell tiles); "
                "zero forcing needs users <= tiles"
            )
        if self.tiling_stride < 1:
            raise ValueError("tiling stride must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if not self.zf_condition_cap >= 1.0:  # NaN too: every cond(H) >= 1 would fail it
            raise ValueError(f"zf_condition_cap must be >= 1, got {self.zf_condition_cap}")

    # --- serialization ---

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = dict(doc)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        nested = {
            "aperture": ApertureConfig,
            "scenario": ScenarioParams,
            "pattern": ElementPattern,
            "budget": BudgetConfig,
            "channel": ChannelModel,
        }
        for key, sub in nested.items():
            if key in doc and isinstance(doc[key], dict):
                doc[key] = _from_mapping(sub, doc[key])
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        """Hash of every field that can change a result; `workers` and
        `output_dir` only say how and where a run goes. An alphabet file
        counts by the shapes it holds, not by its path."""
        doc = self.to_dict()
        del doc["workers"], doc["output_dir"]
        if self.alphabet_file:
            doc["alphabet_file"] = [asdict(s) for s in self.shapes()]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
