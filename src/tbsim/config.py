"""Flat key-value run configuration.

Format: one `key = value` pair per line with dotted section prefixes
(`emitter.tau_xx_ps = 300`), `#` comments, blank lines ignored. The config
hash is computed over the sorted key set, so reordering lines does not
change it. Every key is declared once, in `_KEYS`; any other key is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import parse_seed, sha256
from .cavity import DefectModel, LayerStack, make_cavity_stack

if TYPE_CHECKING:
    from .cascade import EmitterParams
    from .optics import DetectorModel, Interferometer, TimebinStateModel


class ConfigError(ValueError):
    """Invalid or missing configuration; names the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key {key!r}: {message}")


def parse_config(text: str) -> dict:
    """Parse flat dotted key-value text into an ordered mapping."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(key.strip() or f"line {lineno}",
                              f"expected 'key = value' on line {lineno}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(key or f"line {lineno}",
                              f"empty key or value on line {lineno}")
        if key in out:
            raise ConfigError(key, f"duplicate key on line {lineno}")
        out[key] = value
    return out


def config_hash(mapping: dict) -> str:
    """SHA-256 over the sorted key=value lines; order-independent."""
    canon = "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))
    return sha256(canon.encode("utf-8")).hexdigest()


def _int(text: str) -> int:
    return int(text, 0)


def _checked(parse, ok, requirement: str):
    """`parse`, then reject a value for which `ok` is false."""
    def parse_checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"must be {requirement}")
        return value
    return parse_checked


_COUNT = _checked(_int, lambda v: v > 0, "a positive integer")
_ANALYZERS = ("analyzer_xx", "analyzer_x")

# Every key a config file may set: key -> (what it sets, field there, parser).
# What it sets is a model field of RunConfig, a tuple of them, or None for
# RunConfig itself. Model values are checked by the model; the parsers of
# RunConfig's own fields hold its checks.
_KEYS = {
    "seed": (None, "seed", parse_seed),
    "emitter.tau_xx_ps": ("emitter", "tau_xx", float),
    "emitter.tau_x_ps": ("emitter", "tau_x", float),
    "emitter.blinking_on_fraction": ("emitter", "blinking_on_fraction", float),
    "emitter.p_emit_pi": ("emitter", "p_emit_pi", float),
    "emitter.two_pair_prob": ("emitter", "two_pair_prob", float),
    "emitter.rep_period_ps": ("emitter", "rep_period", float),
    "emitter.blinking_mean_on_cycles": ("emitter", "blinking_mean_on_cycles", float),
    "state.visibility": ("state", "visibility", float),
    "state.pump_phase": ("state", "pump_phase", float),
    "analyzer.delay_ps": (_ANALYZERS, "delay", float),
    "analyzer.phase_xx": ("analyzer_xx", "phase", float),
    "analyzer.phase_x": ("analyzer_x", "phase", float),
    "detector.efficiency": ("detectors", "efficiency", float),
    "detector.dark_count_rate_hz": ("detectors", "dark_count_rate", float),
    "detector.jitter_sigma_ps": ("detectors", "jitter_sigma", float),
    "detector.dead_time_ps": ("detectors", "dead_time", float),
    "tomography.cycles_per_setting": (None, "tomography_cycles", _COUNT),
    "hom.mutual_visibility": (None, "hom_mutual_visibility",
                              _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    "hom.cycles": (None, "hom_cycles", _COUNT),
    "autocorr.photon": (None, "autocorr_photon",
                        _checked(str, lambda v: v in ("xx", "x"), "'xx' or 'x'")),
    "autocorr.cycles": (None, "autocorr_cycles", _COUNT),
    "autocorr.g2_target": (None, "autocorr_g2_target",
                           _checked(float, lambda v: v >= 0.0, "non-negative")),
    "lifetime.tau_ps": (None, "lifetime_tau", _checked(
        float, lambda v: 0.0 < v < math.inf, "positive and finite")),
    "lifetime.counts": (None, "lifetime_counts", _COUNT),
    "rabi.damping": (None, "rabi_damping",
                     _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")),
    "rabi.cycles_per_point": (None, "rabi_cycles_per_point", _COUNT),
    "cavity.bottom_pairs": ("stack", "bottom_pairs", _int),
    "cavity.top_pairs": ("stack", "top_pairs", _int),
    "cavity.t_high_nm": ("stack", "t_high", float),
    "cavity.t_low_nm": ("stack", "t_low", float),
    "cavity.t_cavity_nm": ("stack", "t_cavity", float),
    "cavity.n_high": ("stack", "n_high", float),
    "cavity.n_low": ("stack", "n_low", float),
    "defect.height_nm": ("defect", "height", float),
    "defect.diameter_nm": ("defect", "diameter", float),
    "output.dir": (None, "output_dir", str),
}


@dataclass
class RunConfig:
    """Validated simulation run configuration.

    Every run is fully determined by this object plus the seed; there is
    no hidden global state.
    """

    seed: int
    emitter: EmitterParams
    state: TimebinStateModel
    analyzer_xx: Interferometer
    analyzer_x: Interferometer
    detectors: DetectorModel
    stack: LayerStack
    defect: DefectModel
    tomography_cycles: int = 200000
    hom_mutual_visibility: float = 0.482
    hom_cycles: int = 400000
    autocorr_photon: str = "xx"
    autocorr_cycles: int = 300000
    autocorr_g2_target: float = 0.016
    lifetime_tau: float = 300.0
    lifetime_counts: int = 100000
    rabi_damping: float = 0.65
    rabi_cycles_per_point: int = 100000
    output_dir: str = "."
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        # imported here, so that `parse_config` alone loads no model module
        from .cascade import EmitterParams
        from .optics import DetectorModel, Interferometer, TimebinStateModel
        # the model each RunConfig model field is built by, from the keys given
        models = {"emitter": EmitterParams, "state": TimebinStateModel,
                  "analyzer_xx": Interferometer, "analyzer_x": Interferometer,
                  "detectors": DetectorModel, "stack": make_cavity_stack,
                  "defect": DefectModel}
        if "seed" not in mapping:
            raise ConfigError("seed", "required key is missing")
        given = {part: {} for part in (None, *models)}
        for key, text in mapping.items():
            if key not in _KEYS:
                raise ConfigError(key, "unknown key")
            parts, name, parse = _KEYS[key]
            parts = parts if isinstance(parts, tuple) else (parts,)
            try:
                value = parse(text)
                for part in parts:
                    if part is not None:  # the model's own check, on this value alone
                        models[part](**{name: value})
            except ValueError as exc:
                raise ConfigError(key, f"{text!r} rejected: {exc}") from None
            for part in parts:
                given[part][name] = value
        built = {part: build(**given[part]) for part, build in models.items()}
        return cls(**given[None], **built, raw=dict(mapping))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(parse_config(fh.read()))

    def hash(self) -> str:
        return config_hash(self.raw)
