"""Run configuration: one JSON document drives every command.

Keys carry explicit units in their names (frequency_ghz, tx_power_dbm,
spacing in wavelengths) so unit mistakes surface as key errors rather than
silent scale bugs. Serialization round-trips exactly and the canonical
JSON hash stamps every output file. Every section that `RunConfig.load`
builds is defined here, without numpy; their few array methods import it.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

from .search import Aperture
from .shapes import PolyominoShape, alphabet, load_alphabet

try:  # CPython's own SHA-256, as random.py's SHA-512: hashlib loads OpenSSL, 3.4 MB
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10-3.11
    except ImportError:
        from hashlib import sha256


def _checked(section) -> None:
    """Check each field of a config section against its annotation, naming
    its dotted key: an int is >= 1 (>= 0 for seed and workers), a float is a
    finite number (zf_condition_cap may be inf or NaN; the frequency, the
    spacings and the ISD are > 0), neither is a bool, a str or section field
    holds one, `| None` admits None; numpy ints -> int."""
    prefix = next((f"{f.name}." for f in fields(RunConfig) if f.type == type(section).__name__), "")
    for f in fields(section):
        key, value = prefix + f.name, getattr(section, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        integer = type(value) is not bool and hasattr(type(value), "__index__")
        if kind == "int":
            least = 0 if f.name in ("seed", "workers") else 1
            if not integer or value < least:
                sign = "non-negative" if least == 0 else "positive"
                raise ValueError(f"{key} must be a {sign} integer, got {value!r}")
        elif kind == "float":
            if not (integer or isinstance(value, float)):
                raise ValueError(f"{key} must be a number, got {value!r}")
            # an integer too large for a float is no more finite than inf
            if not abs(value) <= sys.float_info.max and (integer or f.name != "zf_condition_cap"):
                raise ValueError(f"{key} must be finite, got {value}")
            positive = f.name in ("frequency_ghz", "isd_m") or f.name.startswith("spacing_")
            if positive and not value > 0:
                raise ValueError(f"{key} must be positive, got {value}")
        elif not isinstance(value, str if kind == "str" else globals()[kind]):
            raise ValueError(f"{key} must be of type {kind}, got {value!r}")
        if integer:
            object.__setattr__(section, f.name, operator.index(value))


@dataclass(frozen=True)
class ApertureConfig:
    columns: int = 8
    rows: int = 12
    spacing_y_wavelengths: float = 0.5
    spacing_z_wavelengths: float = 0.7

    def __post_init__(self):
        _checked(self)


@dataclass(frozen=True)
class BudgetConfig:
    # default noise floor: thermal at 20 MHz plus a 9 dB noise figure
    tx_power_dbm: float = 43.0
    noise_power_dbm: float = -92.0
    coverage_threshold_dbm: float = -120.0

    def __post_init__(self):
        _checked(self)


@dataclass(frozen=True)
class ScenarioParams:
    kind: str  # "uma" | "umi" | free-form tag
    isd_m: float
    bs_height_m: float
    ue_height_mode: str = "fixed"  # "fixed" | "floor"
    ue_height_m: float = 1.5
    drops: int = 200
    users: int = 16
    seed: int = 1
    # cell centroid override; defaults to (d_H, 0) when None
    centroid_x_m: float | None = None
    centroid_y_m: float | None = None

    def __post_init__(self):
        _checked(self)
        if self.ue_height_mode not in ("fixed", "floor"):
            raise ValueError(f"unknown UE height mode {self.ue_height_mode!r}")

    @property
    def hex_edge_m(self) -> float:
        return self.isd_m / 3.0

    @property
    def centroid(self) -> np.ndarray:
        import numpy as np

        x = self.hex_edge_m if self.centroid_x_m is None else self.centroid_x_m
        y = 0.0 if self.centroid_y_m is None else self.centroid_y_m
        return np.array([x, y])


@dataclass(frozen=True)
class ElementPattern:
    """Parabolic-in-dB directional element with slant linear polarization.

    Azimuth and elevation cuts each roll off as 12 (angle / beamwidth)^2 dB,
    clamped at the front-to-back attenuation; the combined rolloff is clamped
    there too. Slant angles define the ideal +-45 deg polarization basis.
    """

    boresight_gain_dbi: float = 8.0
    azimuth_beamwidth_deg: float = 65.0
    elevation_beamwidth_deg: float = 65.0
    front_to_back_db: float = 30.0
    slant_v_deg: float = -45.0
    slant_h_deg: float = 45.0

    def __post_init__(self):
        _checked(self)
        for bw in (self.azimuth_beamwidth_deg, self.elevation_beamwidth_deg):
            if not (0.0 < bw < 180.0):
                raise ValueError(f"beamwidth {bw} outside (0, 180) deg")

    def slant_deg(self, pol: str) -> float:
        if pol not in ("V", "H"):
            raise ValueError(f"polarization must be one of ('V', 'H'), got {pol!r}")
        return self.slant_v_deg if pol == "V" else self.slant_h_deg

    def power_gain_db(self, theta, phi):
        """Directional power gain in dBi; accepts scalars or arrays (rad)."""
        import numpy as np

        phi_deg = np.degrees(np.arctan2(np.sin(phi), np.cos(phi)))
        theta_deg = np.degrees(theta)
        fb = self.front_to_back_db
        a_az = -np.minimum(12.0 * (phi_deg / self.azimuth_beamwidth_deg) ** 2, fb)
        a_el = -np.minimum(
            12.0 * ((theta_deg - 90.0) / self.elevation_beamwidth_deg) ** 2, fb
        )
        return self.boresight_gain_dbi - np.minimum(-(a_az + a_el), fb)

    def power_gain(self, theta, phi):
        from .units import db_to_linear

        return db_to_linear(self.power_gain_db(theta, phi))


@dataclass(frozen=True)
class ChannelModel:
    """Propagation settings: "fspl" or a path-loss-exponent override.

    Exponent 2 reproduces free space; other exponents rescale the amplitude
    as (lambda / 4 pi) d^(-alpha/2) with a 1 m pivot. The penetration loss
    (dB) models indoor users and defaults to 0.
    """

    mode: str = "fspl"
    path_loss_exponent: float = 2.0
    penetration_loss_db: float = 0.0

    def __post_init__(self):
        _checked(self)
        if self.mode not in ("fspl", "ploss_exp"):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if not self.path_loss_exponent > 0:
            raise ValueError("path-loss exponent must be positive")

    @property
    def tag(self) -> str:
        if self.mode == "fspl":
            base = "fspl"
        else:
            base = f"ploss_exp({self.path_loss_exponent:g})"
        if self.penetration_loss_db:
            base += f"+pen({self.penetration_loss_db:g}dB)"
        return base

    def amplitude(self, distance_m, wavelength_m):
        """Linear field amplitude of the path gain at the given distance."""
        import numpy as np

        d = np.asarray(distance_m, dtype=float)
        lam = wavelength_m
        if self.mode == "fspl":
            amp = lam / (4.0 * np.pi * d)
        else:
            amp = lam / (4.0 * np.pi) * d ** (-self.path_loss_exponent / 2.0)
        return amp * 10.0 ** (-self.penetration_loss_db / 20.0)


def stamp_text(stamp: dict) -> str:
    """A run stamp as text, for the headers of the ASCII and SVG files."""
    return f"config_hash={stamp['config_hash']} seed={stamp['seed']}"


def stamp_line(stamp: dict) -> str:
    """The first line of every ASCII file: the stamp's text behind a "# "."""
    return f"# {stamp_text(stamp)}\n"


def _read(cls, doc, key: str):
    """Build config section `cls`, each section field from its own object, from
    the JSON object `doc` at dotted `key` ("" at the top); refuse unknown and missing keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{key or 'config'} must be a JSON object, got {doc!r}")
    known = {f.name: f for f in fields(cls)}
    prefix = key and f"{key}."
    unknown = sorted(f"{prefix}{name}" for name in set(doc) - set(known))
    if unknown:
        raise ValueError(f"unknown {cls.__name__ if key else 'config'} keys: {unknown}")
    missing = [prefix + name for name, f in known.items()
               if name not in doc and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {key or 'config'} keys: {missing}")
    # a section field is annotated with its class's name; int, float and str name none here
    sections = {name: globals().get(f.type) for name, f in known.items()}
    return cls(**{name: _read(sections[name], value, prefix + name) if sections[name] else value
                  for name, value in doc.items()})


@dataclass
class RunConfig:
    aperture: ApertureConfig = field(default_factory=ApertureConfig)
    scenario: ScenarioParams = field(
        default_factory=lambda: ScenarioParams(kind="uma", isd_m=500.0, bs_height_m=25.0)
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

    def __post_init__(self):
        _checked(self)

    # --- construction of the working objects ---

    def aperture_grid(self) -> Aperture:
        return Aperture(self.aperture.columns, self.aperture.rows)

    def geometry(self) -> ArrayGeometry:
        from .geometry import ArrayGeometry
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
        from .channel import LinkBudget

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
        # inf turns the cap off; NaN or < 1 would fail every cond(H) >= 1
        if not self.zf_condition_cap >= 1.0:
            raise ValueError(f"zf_condition_cap must be >= 1, got {self.zf_condition_cap}")

    # --- serialization ---

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return _read(cls, doc, "")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def stamp(self) -> dict:
        """The run stamp that heads every output file: config hash and seed."""
        return {"config_hash": self.config_hash(), "seed": self.scenario.seed}

    def config_hash(self) -> str:
        """Hash of every field that can change a result; `workers` and
        `output_dir` only say how and where a run goes. An alphabet file
        counts by the shapes it holds, not by its path."""
        doc = self.to_dict()
        del doc["workers"], doc["output_dir"]
        if self.alphabet_file:
            doc["alphabet_file"] = [asdict(s) for s in self.shapes()]
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode()).hexdigest()[:16]

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
