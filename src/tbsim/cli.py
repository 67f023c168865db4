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
import math
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, parse_seed
from .table import format_table, read_table

if TYPE_CHECKING:
    from .config import RunConfig

# Each handler imports the modules it runs, numpy and the tbsim modules
# alike, so that a command loads only its own path: the cavity commands load
# `cavity` alone, and `--version`, `-h` and a usage error load no numpy.

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


class DataError(ValueError):
    """Malformed or inconsistent input data."""


class ConvergenceError(RuntimeError):
    """A fit or reconstruction failed to converge."""


def _write_atomic(path: str, data: str) -> None:
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tbsim-{os.getpid()}-{os.urandom(8).hex()}.tmp")
    try:
        # mode 0666 less the umask, as open() would give; O_EXCL never reuses a file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_dumps(obj) -> str:
    """Strict JSON: a NaN or an infinity is a data error, never `NaN` or `Infinity` in a file."""
    import json
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"a result is not a finite number: {exc}") from None


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
        # the directory is made at the first write, so a rejected run leaves
        # none behind; an existing file on its path is an error before any work
        d = os.path.abspath(out_dir)
        while not os.path.exists(d):
            d = os.path.dirname(d)
        if not os.path.isdir(d):
            raise DataError(f"cannot write {out_dir}: {d} is not a directory")

    def add_input(self, path: str) -> None:
        self.inputs.append({"path": path, "sha256": _sha256_file(path)})

    def _path(self, name: str) -> str:
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"cannot write {self.out_dir}: {exc}") from None
        return os.path.join(self.out_dir, name)

    def write(self, name: str, data: str) -> str:
        path = self._path(name)
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
        _write_atomic(self._path("manifest.json"), _json_dumps(manifest))


def _read_config(path: str) -> RunConfig:
    from .config import RunConfig
    try:
        return RunConfig.from_file(path)
    except OSError as exc:  # a config file that is missing, a directory or unreadable
        raise DataError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------- simulate


def _simulate_tomography(cfg: RunConfig, run: _Run) -> None:
    from . import optics, tomo
    from .config import ConfigError
    rho = optics.ideal_timebin_density(cfg.state)
    efficiency_product = cfg.detectors.efficiency**2  # both photons are detected
    if not efficiency_product > 0.0:
        raise ConfigError("detector.efficiency", f"{cfg.detectors.efficiency!r} squared, "
                          "the pair detection efficiency, underflows to 0")
    try:  # a count beyond the float range, or a mean too large to draw (PoissonMeanError)
        table = tomo.simulate_counts(rho, cfg.tomography_cycles, efficiency_product, cfg.seed)
    except OverflowError as exc:
        raise ConfigError("tomography.cycles_per_setting", f"too many counts: {exc}") from None
    run.write("tomography_counts.csv", table.to_csv())


def _check_resolution(key: str, cycles: int, period: float, bin_width: float) -> None:
    """Reject a cycle count whose last timestamps float64 cannot resolve to the bin width."""
    from .config import ConfigError
    try:
        end = cycles * period
    except OverflowError:  # a count beyond the float range
        end = float("inf")
    if not math.ulp(end) <= bin_width:
        raise ConfigError(key, f"the run would end at {end:.3g} ps, where float64 timestamps "
                          f"lie more than the {bin_width:g} ps histogram bin apart")


def _simulate_hom(cfg: RunConfig, run: _Run) -> None:
    from . import optics
    bin_width = 50.0
    _check_resolution("hom.cycles", cfg.hom_cycles, 2.0 * cfg.emitter.rep_period, bin_width)
    events = optics.simulate_hom_run(
        cfg.emitter, cfg.analyzer_xx, cfg.hom_mutual_visibility,
        cfg.detectors, cfg.hom_cycles, cfg.seed)
    hist = optics.histogram_events(
        events, 0, 1, bin_width=bin_width, max_delay=2.6 * cfg.analyzer_xx.delay)
    run.write("hom_hist.csv", hist.to_csv())


def _simulate_autocorr(cfg: RunConfig, run: _Run) -> None:
    import dataclasses

    from . import optics
    from .cascade import two_pair_prob_for_g2
    from .config import ConfigError
    try:
        two_pair_prob = two_pair_prob_for_g2(cfg.autocorr_g2_target, cfg.emitter)
    except ValueError as exc:
        raise ConfigError("autocorr.g2_target", str(exc)) from None
    bin_width = cfg.emitter.rep_period / 25.0
    _check_resolution("autocorr.cycles", cfg.autocorr_cycles, cfg.emitter.rep_period, bin_width)
    emitter = dataclasses.replace(cfg.emitter, two_pair_prob=two_pair_prob)
    events = optics.simulate_autocorrelation(
        emitter, cfg.autocorr_photon, cfg.detectors, cfg.autocorr_cycles,
        cfg.seed)
    hist = optics.histogram_events(
        events, 0, 1, bin_width=bin_width, max_delay=20.5 * cfg.emitter.rep_period)
    run.write("autocorr_hist.csv", hist.to_csv())


def _simulate_lifetime(cfg: RunConfig, run: _Run) -> None:
    """Decay histogram, binned one block of counts at a time.

    Count i draws its delay at counter i of stream `LIFETIME` and its jitter
    at counter n + i, the counters one whole-run `CounterRng` would give them.
    """
    import numpy as np

    from . import optics, rng
    s = rng.stream_seed(cfg.seed, rng.Stream.LIFETIME)
    n = cfg.lifetime_counts
    sigma = cfg.detectors.jitter_sigma
    t0 = 8.0 * sigma
    bin_width = 4.0
    lo = -32.0 * bin_width
    hi = t0 + 12.0 * cfg.lifetime_tau
    edges = np.arange(lo, hi + bin_width, bin_width)
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for a in range(0, n, rng.BLOCK):
        c = np.arange(a, min(a + rng.BLOCK, n), dtype=np.uint64)
        t = rng.exponential(s, c, cfg.lifetime_tau)
        t += t0
        if sigma > 0:
            c += np.uint64(n)
            z = rng.normal_pairs(s, c)
            z *= sigma
            t += z
        counts += np.histogram(t, bins=edges)[0]
    hist = optics.CoincidenceHistogram(
        bin_width=bin_width, origin=float(edges[0]), counts=counts)
    run.write("lifetime_hist.csv", hist.to_csv())


_RABI_COLUMNS = ("sqrt_power", "counts")


def _simulate_rabi(cfg: RunConfig, run: _Run) -> None:
    import numpy as np

    from .cascade import two_photon_rabi_population
    from .config import ConfigError
    from .rng import CounterRng, Stream
    sqrt_powers = np.round(np.linspace(0.1, 2.5, 25), 6)
    try:  # a count beyond the float range, or a mean too large to draw (PoissonMeanError)
        means = np.array([
            cfg.rabi_cycles_per_point
            * two_photon_rabi_population(np.pi * s, cfg.rabi_damping)
            for s in sqrt_powers])
        rates = CounterRng(cfg.seed, Stream.RABI).poisson(means)
    except OverflowError as exc:
        raise ConfigError("rabi.cycles_per_point", f"too many counts: {exc}") from None
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


def _read_histogram(path: str):
    """The histogram file at `path`; a count total beyond int64, which the
    cumsum of `peak_areas` would wrap, is a data error."""
    from .optics import CoincidenceHistogram
    hist = CoincidenceHistogram.from_csv(_read_text(path))
    total = sum(hist.counts.tolist())
    if total > 2**63 - 1:
        raise DataError(f"histogram counts total {total}, beyond the 64-bit range")
    return hist


def _analyze_tomo(args, run: _Run) -> dict:
    from . import tomo
    from .qcore import purity
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
        "rho": {"re": result.rho.matrix.real.tolist(), "im": result.rho.matrix.imag.tolist()},
    }


def _analyze_g2(args, run: _Run) -> dict:
    from . import fitting
    hist = _read_histogram(args.input)
    g2, g2_err = fitting.g2_zero(hist, args.rep_period)
    blink = fitting.blinking_factor(hist, args.rep_period)
    return {"g2_zero": g2, "g2_zero_err": g2_err, "blinking_factor": blink,
            "rep_period_ps": args.rep_period}


def _analyze_hom(args, run: _Run) -> dict:
    from . import fitting
    hist = _read_histogram(args.input)
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
    from . import fitting, optics
    if not (math.isfinite(args.jitter_fwhm) and args.jitter_fwhm >= 0):  # 0: ideal detector
        raise DataError(f"--jitter-fwhm {args.jitter_fwhm} ps must be a non-negative "
                        "finite number")
    hist = _read_histogram(args.input)
    fit = fitting.fit_lifetime(hist, args.jitter_fwhm / optics.FWHM_PER_SIGMA)
    if not fit.converged:
        raise ConvergenceError("lifetime fit did not converge")
    return {"tau_ps": fit.value("tau"), "tau_err_ps": fit.sigma("tau"),
            "t0_ps": fit.value("t0"), "tau_tail_ps": fit.value("tau_tail")}


def _analyze_rabi(args, run: _Run) -> dict:
    from . import fitting
    if not (math.isfinite(args.rate_normalization) and args.rate_normalization > 0):
        raise DataError(f"--rate-normalization {args.rate_normalization} must be a "
                        "positive finite number")
    _, (x, y) = read_table(_read_text(args.input), _RABI_COLUMNS, "scan", (float, int))
    if len(x) < 3:
        raise DataError(f"scan has {len(x)} rows; the two-parameter fit needs 3 or more")
    if min(x) < 0 or min(y) < 0:
        raise DataError("scan has a negative sqrt_power or count")
    fit = fitting.fit_rabi(x, y, rate_normalization=args.rate_normalization)
    if not fit.converged:
        raise ConvergenceError("Rabi fit did not converge")
    return {name: {"value": v, "sigma": s}
            for name, (v, s) in fit.params.items()}


def _analyze_budget(args, run: _Run) -> dict:
    import dataclasses

    from . import cavity
    from .config import parse_config
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
    import numpy as np

    from . import cavity
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


def _seed(text: str) -> int:
    """`--seed`: `parse_seed`, with its reason in the usage error."""
    try:
        return parse_seed(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} {exc}") from None


def _mc_runs(text: str) -> int:
    """`--mc-runs`: at least 2 resamples, since their spread is a sample std."""
    try:
        runs = int(text)
    except ValueError:  # not an integer at all breaks the same rule
        runs = 0
    if runs < 2:
        raise argparse.ArgumentTypeError(f"{text!r} must be an integer of at least 2")
    return runs


class _Parser(argparse.ArgumentParser):
    """A usage error is one line on stderr, `prog: error: message`, exit 2,
    like every other error; `-h` still prints the usage."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tbsim",
        description="Time-bin entanglement experiment simulator and analyzer")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic data files")
    sim.add_argument("what", choices=sorted(_SIMULATORS))
    sim.add_argument("--config", required=True, help="flat key-value config file")
    sim.add_argument("--seed", type=_seed, help="overrides the config seed")
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
    ana["tomo"].add_argument("--seed", type=_seed, default=0,
                             help="Monte-Carlo resampling seed")
    ana["tomo"].add_argument("--mc-runs", type=_mc_runs, default=50,
                             help="Monte-Carlo error-bar resamples (at least 2)")
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
