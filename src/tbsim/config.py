"""Flat key-value run configuration.

Format: one `key = value` pair per line with dotted section prefixes
(`emitter.tau_xx_ps = 300`), `#` comments, blank lines ignored. The config
hash is computed over the sorted key set, so reordering lines does not
change it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .cascade import EmitterParams
from .cavity import N_ALAS, N_GAAS, DefectModel, LayerStack, make_cavity_stack
from .optics import FWHM_PER_SIGMA, DetectorModel, Interferometer, TimebinStateModel


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
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _get(mapping: dict, key: str, cast, default=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(key, "required key is missing")
        return default
    try:
        return cast(mapping[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, f"cannot parse {mapping[key]!r}: {exc}") from None


def _int(s):
    v = int(s, 0) if isinstance(s, str) else int(s)
    return v


def _count(mapping: dict, key: str, default: int) -> int:
    v = _get(mapping, key, _int, default)
    if v <= 0:
        raise ConfigError(key, f"must be a positive integer, got {v}")
    return v


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
    tomography_cycles: int
    hom_mutual_visibility: float
    hom_cycles: int
    autocorr_photon: str
    autocorr_cycles: int
    autocorr_g2_target: float
    lifetime_tau: float
    lifetime_counts: int
    rabi_damping: float
    rabi_cycles_per_point: int
    stack: LayerStack
    defect: DefectModel
    output_dir: str
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        seed = _get(mapping, "seed", _int)
        if not (0 <= seed < 2**64):
            raise ConfigError("seed", "must be an unsigned 64-bit integer")
        try:
            emitter = EmitterParams(
                tau_xx=_get(mapping, "emitter.tau_xx_ps", float, 300.0),
                tau_x=_get(mapping, "emitter.tau_x_ps", float, 468.0),
                blinking_on_fraction=_get(
                    mapping, "emitter.blinking_on_fraction", float, 0.625),
                p_emit_pi=_get(mapping, "emitter.p_emit_pi", float, 0.65),
                two_pair_prob=_get(mapping, "emitter.two_pair_prob", float, 0.0),
                rep_period=_get(mapping, "emitter.rep_period_ps", float, 12500.0),
                blinking_mean_on_cycles=_get(
                    mapping, "emitter.blinking_mean_on_cycles", float, 200.0),
            )
            state = TimebinStateModel(
                visibility=_get(mapping, "state.visibility", float, 1.0),
                pump_phase=_get(mapping, "state.pump_phase", float, 0.0),
            )
            delay = _get(mapping, "analyzer.delay_ps", float, 3000.0)
            analyzer_xx = Interferometer(
                delay=delay, phase=_get(mapping, "analyzer.phase_xx", float, 0.0))
            analyzer_x = Interferometer(
                delay=delay, phase=_get(mapping, "analyzer.phase_x", float, 0.0))
            detectors = DetectorModel(
                efficiency=_get(mapping, "detector.efficiency", float, 0.25),
                dark_count_rate=_get(
                    mapping, "detector.dark_count_rate_hz", float, 100.0),
                jitter_sigma=_get(mapping, "detector.jitter_sigma_ps", float,
                                  16.0 / FWHM_PER_SIGMA),
                dead_time=_get(mapping, "detector.dead_time_ps", float, 0.0),
            )
            stack = make_cavity_stack(
                bottom_pairs=_get(mapping, "cavity.bottom_pairs", _int, 24),
                top_pairs=_get(mapping, "cavity.top_pairs", _int, 5),
                t_high=_get(mapping, "cavity.t_high_nm", float, 68.0),
                t_low=_get(mapping, "cavity.t_low_nm", float, 82.0),
                t_cavity=_get(mapping, "cavity.t_cavity_nm", float, 270.0),
                n_high=_get(mapping, "cavity.n_high", float, N_GAAS),
                n_low=_get(mapping, "cavity.n_low", float, N_ALAS),
            )
            defect = DefectModel(
                height=_get(mapping, "defect.height_nm", float, 20.0),
                diameter=_get(mapping, "defect.diameter_nm", float, 2000.0),
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("<validation>", str(exc)) from None

        photon = _get(mapping, "autocorr.photon", str, "xx")
        if photon not in ("xx", "x"):
            raise ConfigError("autocorr.photon", "must be 'xx' or 'x'")
        g2_target = _get(mapping, "autocorr.g2_target", float, 0.016)
        if not g2_target >= 0.0:
            raise ConfigError("autocorr.g2_target", f"must be non-negative, got {g2_target}")
        hom_visibility = _get(mapping, "hom.mutual_visibility", float, 0.482)
        if not 0.0 <= hom_visibility <= 1.0:
            raise ConfigError("hom.mutual_visibility",
                              f"must be in [0, 1], got {hom_visibility}")
        lifetime_tau = _get(mapping, "lifetime.tau_ps", float, 300.0)
        if not 0.0 < lifetime_tau < float("inf"):
            raise ConfigError("lifetime.tau_ps",
                              f"must be positive and finite, got {lifetime_tau}")
        rabi_damping = _get(mapping, "rabi.damping", float, 0.65)
        if not 0.0 < rabi_damping <= 1.0:
            raise ConfigError("rabi.damping", f"must be in (0, 1], got {rabi_damping}")

        return cls(
            seed=seed,
            emitter=emitter,
            state=state,
            analyzer_xx=analyzer_xx,
            analyzer_x=analyzer_x,
            detectors=detectors,
            tomography_cycles=_count(mapping, "tomography.cycles_per_setting",
                                     200000),
            hom_mutual_visibility=hom_visibility,
            hom_cycles=_count(mapping, "hom.cycles", 400000),
            autocorr_photon=photon,
            autocorr_cycles=_count(mapping, "autocorr.cycles", 300000),
            autocorr_g2_target=g2_target,
            lifetime_tau=lifetime_tau,
            lifetime_counts=_count(mapping, "lifetime.counts", 100000),
            rabi_damping=rabi_damping,
            rabi_cycles_per_point=_count(mapping, "rabi.cycles_per_point",
                                         100000),
            stack=stack,
            defect=defect,
            output_dir=_get(mapping, "output.dir", str, "."),
            raw=dict(mapping),
        )

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_mapping(parse_config(fh.read()))

    def hash(self) -> str:
        return config_hash(self.raw)
