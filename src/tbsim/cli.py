"""Command-line entry point for reproducible simulation and analysis runs.

Every command is a pure function of (config file, input files, seed):
rerunning with the same inputs produces byte-identical data files. All
writes go through a temp-file-then-rename step so a crashed run never
leaves a partial artifact behind.

Exit codes: 0 success, 2 config error, 3 data error (an unreadable input
or an output that cannot be written included), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__, cavity, fitting, optics, tomo
from .cascade import two_pair_prob_for_g2, two_photon_rabi_population
from .config import ConfigError, RunConfig, parse_config, parse_seed
from .qcore import purity
from .rng import CounterRng
from .table import format_table, read_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class ConvergenceError(RuntimeError):
    """A fit or reconstruction failed to converge."""


def _write_atomic(path: str, data: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tbsim-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Run:
    """Collects inputs/outputs/timings and writes the run manifest."""

    def __init__(self, command: str, out_dir: str, config_hash: str | None,
                 seed: int | None):
        self.command = command
        self.out_dir = out_dir
        self.config_hash = config_hash
        self.seed = seed
        self.inputs = []
        self.outputs = []
        self.t0 = time.monotonic()
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # e.g. --out names an existing file
            raise DataError(f"cannot write {out_dir}: {exc}") from None

    def add_input(self, path: str) -> None:
        self.inputs.append({"path": path, "sha256": _sha256_file(path)})

    def write(self, name: str, data: str) -> str:
        path = os.path.join(self.out_dir, name)
        _write_atomic(path, data)
        self.outputs.append({"path": path, "sha256": _sha256_file(path)})
        return path

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "package_version": __version__,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "wall_clock_s": round(time.monotonic() - self.t0, 6),
        }
        _write_atomic(os.path.join(self.out_dir, "manifest.json"),
                      _json_dumps(manifest))


def _read_config(path: str) -> RunConfig:
    try:
        return RunConfig.from_file(path)
    except OSError as exc:  # a config file that is missing, a directory or unreadable
        raise DataError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------- simulate


def _simulate_tomography(cfg: RunConfig, run: _Run) -> None:
    rho = optics.ideal_timebin_density(cfg.state)
    table = tomo.simulate_counts(
        rho, cfg.tomography_cycles, cfg.detectors.efficiency**2, cfg.seed)
    run.write("tomography_counts.csv", table.to_csv())


def _simulate_hom(cfg: RunConfig, run: _Run) -> None:
    events = optics.simulate_hom_run(
        cfg.emitter, cfg.analyzer_xx, cfg.hom_mutual_visibility,
        cfg.detectors, cfg.hom_cycles, cfg.seed)
    hist = optics.histogram_events(
        events, 0, 1, bin_width=50.0, max_delay=2.6 * cfg.analyzer_xx.delay)
    run.write("hom_hist.csv", hist.to_csv())


def _simulate_autocorr(cfg: RunConfig, run: _Run) -> None:
    try:
        two_pair_prob = two_pair_prob_for_g2(cfg.autocorr_g2_target, cfg.emitter)
    except ValueError as exc:
        raise ConfigError("autocorr.g2_target", str(exc)) from None
    emitter = dataclasses.replace(cfg.emitter, two_pair_prob=two_pair_prob)
    events = optics.simulate_autocorrelation(
        emitter, cfg.autocorr_photon, cfg.detectors, cfg.autocorr_cycles,
        cfg.seed)
    hist = optics.histogram_events(
        events, 0, 1, bin_width=cfg.emitter.rep_period / 25.0,
        max_delay=20.5 * cfg.emitter.rep_period)
    run.write("autocorr_hist.csv", hist.to_csv())


def _simulate_lifetime(cfg: RunConfig, run: _Run) -> None:
    rng = CounterRng(cfg.seed, stream=80)
    n = cfg.lifetime_counts
    t0 = 8.0 * cfg.detectors.jitter_sigma
    t = t0 + rng.exponential(n, cfg.lifetime_tau)
    if cfg.detectors.jitter_sigma > 0:
        t = t + rng.normal(n, cfg.detectors.jitter_sigma)
    bin_width = 4.0
    lo = -32.0 * bin_width
    hi = t0 + 12.0 * cfg.lifetime_tau
    edges = np.arange(lo, hi + bin_width, bin_width)
    counts, _ = np.histogram(t, bins=edges)
    hist = optics.CoincidenceHistogram(
        bin_width=bin_width, origin=float(edges[0]),
        counts=counts.astype(np.int64))
    run.write("lifetime_hist.csv", hist.to_csv())


_RABI_COLUMNS = ("sqrt_power", "counts")


def _simulate_rabi(cfg: RunConfig, run: _Run) -> None:
    sqrt_powers = np.round(np.linspace(0.1, 2.5, 25), 6)
    means = np.array([
        cfg.rabi_cycles_per_point
        * two_photon_rabi_population(np.pi * s, cfg.rabi_damping)
        for s in sqrt_powers])
    rng = CounterRng(cfg.seed, stream=81)
    rates = rng.poisson(means)
    run.write("rabi_scan.csv", format_table(
        _RABI_COLUMNS, zip(sqrt_powers.tolist(), rates.tolist())))


_SIMULATORS = {
    "tomography": _simulate_tomography,
    "hom": _simulate_hom,
    "autocorr": _simulate_autocorr,
    "lifetime": _simulate_lifetime,
    "rabi": _simulate_rabi,
}


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = args.out or cfg.output_dir
    run = _Run(f"simulate {args.what}", out_dir, cfg.hash(), cfg.seed)
    run.add_input(args.config)
    _SIMULATORS[args.what](cfg, run)
    run.finish()
    return EXIT_OK


# ----------------------------------------------------------------- analyze


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _analyze_tomo(args, run: _Run) -> dict:
    table = tomo.CountsTable.from_csv(_read_text(args.input))
    run.seed = args.seed
    result = tomo.reconstruct(table, mc_runs=args.mc_runs, seed=args.seed)
    if not result.converged:
        raise ConvergenceError("tomographic reconstruction did not converge")
    return {
        "concurrence": result.concurrence,
        "concurrence_err": result.concurrence_err,
        "fidelity": result.fidelity,
        "fidelity_err": result.fidelity_err,
        "fidelity_phase_optimized": result.fidelity_phase_optimized,
        "purity": purity(result.rho),
        "log_likelihood": result.log_likelihood,
        "mc_converged": result.mc_converged,
        "rho": result.rho.to_json(),
    }


def _analyze_g2(args, run: _Run) -> dict:
    hist = optics.CoincidenceHistogram.from_csv(_read_text(args.input))
    g2, g2_err = fitting.g2_zero(hist, args.rep_period)
    blink = fitting.blinking_factor(hist, args.rep_period)
    return {"g2_zero": g2, "g2_zero_err": g2_err, "blinking_factor": blink,
            "rep_period_ps": args.rep_period}


def _analyze_hom(args, run: _Run) -> dict:
    hist = optics.CoincidenceHistogram.from_csv(_read_text(args.input))
    peaks = fitting.hom_five_peak(hist, args.delay)
    return {
        "g2_hom": peaks.g2_hom,
        "g2_hom_err": peaks.g2_hom_err,
        "visibility": peaks.visibility,
        "peak_areas": {"-2": peaks.c_minus, "-1": peaks.b_minus, "0": peaks.a,
                       "1": peaks.b_plus, "2": peaks.c_plus},
        "delay_ps": args.delay,
    }


def _analyze_lifetime(args, run: _Run) -> dict:
    if not (np.isfinite(args.jitter_fwhm) and args.jitter_fwhm >= 0):  # 0: ideal detector
        raise DataError(f"--jitter-fwhm {args.jitter_fwhm} ps must be a non-negative "
                        "finite number")
    hist = optics.CoincidenceHistogram.from_csv(_read_text(args.input))
    fit = fitting.fit_lifetime(hist, args.jitter_fwhm / optics.FWHM_PER_SIGMA)
    if not fit.converged:
        raise ConvergenceError("lifetime fit did not converge")
    return {"tau_ps": fit.value("tau"), "tau_err_ps": fit.sigma("tau"),
            "t0_ps": fit.value("t0"), "tau_tail_ps": fit.value("tau_tail")}


def _analyze_rabi(args, run: _Run) -> dict:
    if not (np.isfinite(args.rate_normalization) and args.rate_normalization > 0):
        raise DataError(f"--rate-normalization {args.rate_normalization} must be a "
                        "positive finite number")
    _, (x, y) = read_table(_read_text(args.input), _RABI_COLUMNS, "scan",
                           (float, float))
    if len(x) < 3:
        raise DataError(f"scan has {len(x)} rows; the two-parameter fit needs 3 or more")
    fit = fitting.fit_rabi(x, y, rate_normalization=args.rate_normalization)
    if not fit.converged:
        raise ConvergenceError("Rabi fit did not converge")
    return {name: {"value": v, "sigma": s}
            for name, (v, s) in fit.params.items()}


def _analyze_budget(args, run: _Run) -> dict:
    mapping = parse_config(_read_text(args.input))
    fields = [f.name for f in dataclasses.fields(cavity.EfficiencyBudget)]
    if not mapping:
        raise DataError("budget file defines no channel")
    for key in mapping:
        ch, _, field = key.partition(".")
        if not ch or field not in fields:
            raise DataError(f"budget file has unknown key {key!r}")
    channels = sorted({k.split(".", 1)[0] for k in mapping})
    out = {}
    for ch in channels:
        try:
            kwargs = {f: float(mapping[f"{ch}.{f}"]) for f in fields}
        except KeyError as exc:
            raise DataError(f"budget channel {ch!r} is missing key {exc}") from None
        out[ch] = cavity.efficiency_budget(cavity.EfficiencyBudget(**kwargs))
    return out


_ANALYZERS = {
    "tomo": _analyze_tomo,
    "g2": _analyze_g2,
    "hom": _analyze_hom,
    "lifetime": _analyze_lifetime,
    "rabi": _analyze_rabi,
    "budget": _analyze_budget,
}


def cmd_analyze(args) -> int:
    run = _Run(f"analyze {args.what}", args.out or ".", None, None)
    try:
        run.add_input(args.input)
        result = _ANALYZERS[args.what](args, run)
    except OSError as exc:  # an input that is missing, a directory or unreadable
        raise DataError(f"cannot read {args.input}: {exc}") from None
    except ValueError as exc:  # malformed input, UnicodeDecodeError and ConfigError included
        raise DataError(str(exc)) from None
    result["inputs"] = run.inputs
    run.write(f"analyze_{args.what}.json", _json_dumps(result))
    run.finish()
    return EXIT_OK


# ------------------------------------------------------------------ cavity


def cmd_cavity(args) -> int:
    if args.config:
        cfg = _read_config(args.config)
        stack, defect, cfg_hash = cfg.stack, cfg.defect, cfg.hash()
    else:
        stack, defect, cfg_hash = cavity.make_cavity_stack(), cavity.DefectModel(), None
    run = _Run(f"cavity {args.what}", args.out or ".", cfg_hash, None)
    if args.config:
        run.add_input(args.config)

    mode = cavity.cavity_mode(stack)
    resonance = {"wavelength_nm": mode.wavelength, "quality_factor": mode.q}
    if args.what == "spectrum":
        lam = np.linspace(850.0, 1000.0, 3001)
        big_r, big_t = cavity.transfer_matrix_spectrum(stack, lam)
        run.write("spectrum.csv", format_table(
            ("wavelength_nm", "reflectivity", "transmissivity"),
            zip(lam.tolist(), big_r.tolist(), big_t.tolist())))
        run.write("resonance.json", _json_dumps(resonance))
    elif args.what == "purcell":
        defects = [cavity.DefectModel(height=h, diameter=defect.diameter)
                   for h in args.heights]
        run.write("purcell.csv", format_table(
            ("height_nm", "waist_nm", "purcell"),
            ((d.height, cavity.mode_waist(d), cavity.purcell(mode, d)) for d in defects)))
    else:  # efficiency; repr keys keep NAs that differ in the 7th digit apart
        etas = {repr(na): cavity.extraction_efficiency(mode, defect, na) for na in args.nas}
        run.write("efficiency.json", _json_dumps(
            {**resonance, "extraction_efficiency": etas}))
    run.finish()
    return EXIT_OK


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tbsim",
        description="Time-bin entanglement experiment simulator and analyzer")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic data files")
    sim.add_argument("what", choices=sorted(_SIMULATORS))
    sim.add_argument("--config", required=True, help="flat key-value config file")
    sim.add_argument("--seed", type=parse_seed, help="overrides the config seed")
    sim.add_argument("--out", help="output directory (default: output.dir)")
    sim.set_defaults(func=cmd_simulate)

    def group(name, help, whats, func):
        """`tbsim name what`: one subcommand per `what`, each taking `--out`."""
        subs = sub.add_parser(name, help=help).add_subparsers(dest="what", required=True)
        parsers = {}
        for what in whats:
            sp = parsers[what] = subs.add_parser(what)
            sp.add_argument("--out", help="output directory")
            sp.set_defaults(func=func)
        return parsers

    ana = group("analyze", "extract physics from data files", _ANALYZERS, cmd_analyze)
    for sp in ana.values():
        sp.add_argument("input", help="input CSV/cfg file")
    ana["tomo"].add_argument("--seed", type=parse_seed, default=0,
                             help="Monte-Carlo resampling seed")
    ana["tomo"].add_argument("--mc-runs", type=int, default=50,
                             help="Monte-Carlo error-bar resamples")
    ana["g2"].add_argument("--rep-period", type=float, default=12500.0,
                           help="pulse repetition period in ps")
    ana["hom"].add_argument("--delay", type=float, default=3000.0,
                            help="analyzer path delay in ps")
    ana["lifetime"].add_argument("--jitter-fwhm", type=float, default=16.0,
                                 help="detector response FWHM in ps")
    ana["rabi"].add_argument("--rate-normalization", type=float, default=1.0,
                             help="p_emit_pi = fitted amplitude / this")

    cav = group("cavity", "transfer-matrix cavity calculations",
                ("spectrum", "purcell", "efficiency"), cmd_cavity)
    for sp in cav.values():
        sp.add_argument("--config", help="flat key-value config file "
                        "(default: the nominal stack and defect)")
    cav["purcell"].add_argument("--heights", type=float, nargs="+",
                                default=[10.0, 20.0, 30.0],
                                help="defect heights (nm) for the Purcell sweep")
    cav["efficiency"].add_argument("--nas", type=float, nargs="+", default=[0.62, 0.7],
                                   help="numerical apertures for the efficiency estimate")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        # analyze turns every ValueError into DataError; simulate and cavity
        # read only the config file and flags, so theirs is a config error
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
