"""CLI workloads: sequences of `tbsim` commands, and checks of their files.

`commands(workload, seed, out)` lists the argv of each command of one pass,
writing under `out`; `check(workload, seed, out)` returns the errors found
in that pass's files. The configuration files are copies of the
repository's `baseline.cfg` and `budget.cfg`, kept here so that editing
those examples does not change the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "inputs", "baseline.cfg")
BUDGET = os.path.join(HERE, "inputs", "budget.cfg")

# Files that `simulate` writes: a pure function of (config, seed).
DATA_FILES = ("tomo/tomography_counts.csv", "hom/hom_hist.csv", "g2/autocorr_hist.csv",
              "lt/lifetime_hist.csv", "rabi/rabi_scan.csv")


def read_config(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.split("#", 1)[0].partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cavity_inputs(seed):
    """Defect heights (nm) and collection NAs of a cavity-design pass."""
    g = random.Random(seed)
    heights = sorted(g.sample(range(5, 41), 3))
    extra_na = g.choice([n / 100 for n in range(30, 91) if n not in (62, 70)])
    return heights, [0.62, 0.7, extra_na]


def simulate_commands(seed, out):
    return [["simulate", what, "--config", CONFIG, "--seed", str(seed),
             "--out", os.path.join(out, os.path.dirname(f))]
            for what, f in zip(("tomography", "hom", "autocorr", "lifetime", "rabi"),
                               DATA_FILES)]


def commands(workload, seed, out):
    if workload == "cavity-design":
        heights, nas = cavity_inputs(seed)
        return [["cavity", "spectrum", "--out", os.path.join(out, "spectrum")],
                ["cavity", "purcell", "--out", os.path.join(out, "purcell"),
                 "--heights", *map(str, heights)],
                ["cavity", "efficiency", "--out", os.path.join(out, "efficiency"),
                 "--nas", *map(str, nas)]]
    cfg = read_config(CONFIG)
    data = {os.path.dirname(f): os.path.join(out, f) for f in DATA_FILES}
    return simulate_commands(seed, out) + [
        ["analyze", "tomo", data["tomo"], "--seed", str(seed),
         "--out", os.path.join(out, "tomo_fit")],
        ["analyze", "hom", data["hom"], "--out", os.path.join(out, "hom_fit")],
        ["analyze", "g2", data["g2"], "--out", os.path.join(out, "g2_fit")],
        ["analyze", "lifetime", data["lt"], "--out", os.path.join(out, "lt_fit")],
        ["analyze", "rabi", data["rabi"], "--rate-normalization",
         cfg["rabi.cycles_per_point"], "--out", os.path.join(out, "rabi_fit")],
        ["analyze", "budget", BUDGET, "--out", os.path.join(out, "budget")],
    ]


def check_manifests(out):
    err = []
    for d in sorted(e.path for e in os.scandir(out) if e.is_dir()):
        manifest = _json(os.path.join(d, "manifest.json"))
        for entry in manifest["inputs"] + manifest["outputs"]:
            if _sha256(entry["path"]) != entry["sha256"]:
                err.append(f"{d}/manifest.json: SHA-256 of {entry['path']} differs")
    return err


def check_pipeline(seed, out):
    cfg = read_config(CONFIG)

    def num(key):
        return float(cfg[key])

    err = check_manifests(out)

    t = _json(os.path.join(out, "tomo_fit", "analyze_tomo.json"))
    v, phi = num("state.visibility"), num("state.pump_phase")
    ref.check_near(err, "tomography C", t["concurrence"], v, t["concurrence_err"])
    ref.check_near(err, "tomography F", t["fidelity"], 0.5 * (1.0 + v * math.cos(phi)),
          t["fidelity_err"])

    h = _json(os.path.join(out, "hom_fit", "analyze_hom.json"))
    ref.check_near(err, "g2_HOM", h["g2_hom"], 0.5 * (1.0 - num("hom.mutual_visibility")),
          h["g2_hom_err"])

    # The +-20.5-period histogram normalises by peaks 11-20 periods out,
    # which blinking still bunches: compare with the telegraph closed form
    # for that peak set, not with the long-range values.
    g = _json(os.path.join(out, "g2_fit", "analyze_g2.json"))
    hist = ref.Histogram.from_csv(_text(os.path.join(out, "g2", "autocorr_hist.csv")))
    f, mean_on = num("emitter.blinking_on_fraction"), num("emitter.blinking_mean_on_cycles")
    far = ref.peak_areas(hist, ref.far_peaks(hist))
    near = ref.peak_areas(hist, [-1, 1])
    g2_expect = ref.expected_g2(num("autocorr.g2_target"), f, mean_on, hist)
    ref.check_near(err, "g2(0)", g["g2_zero"], g2_expect, math.sqrt(g2_expect / far.mean()))
    b_expect = ref.expected_blinking_factor(f, mean_on, hist)
    ref.check_near(err, "blinking factor", g["blinking_factor"], b_expect,
          b_expect * math.sqrt(1.0 / near.sum() + 1.0 / far.sum()))

    lt = _json(os.path.join(out, "lt_fit", "analyze_lifetime.json"))
    ref.check_near(err, "lifetime tau", lt["tau_ps"], num("lifetime.tau_ps"), lt["tau_err_ps"])

    rabi = _json(os.path.join(out, "rabi_fit", "analyze_rabi.json"))
    p, pi_pulse = rabi["p_emit_pi"]["value"], rabi["pi_pulse_sqrt_power"]["value"]
    if abs(p / num("rabi.damping") - 1.0) > 0.01:
        err.append(f"Rabi p_emit {p} not within 1% of {cfg['rabi.damping']}")
    if abs(pi_pulse - 1.0) > 0.01:
        err.append(f"Rabi pi pulse at sqrt(P) = {pi_pulse}, not within 1% of 1")

    budget = _json(os.path.join(out, "budget", "analyze_budget.json"))
    b_cfg = {k: float(v) for k, v in read_config(BUDGET).items()}
    for ch in sorted({k.split(".")[0] for k in b_cfg}):
        c = {k.split(".", 1)[1]: v for k, v in b_cfg.items() if k.startswith(ch + ".")}
        eta = c["count_rate"] / (c["rep_rate"] * c["blinking"] * c["p_emit"]
                                 * c["eta_detector"] * c["eta_fiber"] * c["eta_setup"])
        got = budget[ch]["eta_first_lens"]
        if abs(got / eta - 1.0) > 1e-12:
            err.append(f"budget {ch}: eta {got!r} != count rate / factors {eta!r}")
    return err


def check_cavity(seed, out):
    err = check_manifests(out)
    res = _json(os.path.join(out, "spectrum", "resonance.json"))
    lam0, q = res["wavelength_nm"], res["quality_factor"]
    if abs(lam0 - 936.0) > 2.0:
        err.append(f"resonance {lam0} nm not within 2 nm of 936")

    rows = np.loadtxt(os.path.join(out, "spectrum", "spectrum.csv"), delimiter=",",
                      skiprows=1)
    lam, big_r, big_t = rows.T
    worst = float(np.max(np.abs(big_r + big_t - 1.0)))
    if worst > 1e-9:
        err.append(f"R + T - 1 reaches {worst:.2e}")
    # FWHM of the sampled cavity mode, the transmission peak inside the
    # stop band around 936 nm; crossings interpolated linearly
    band = np.flatnonzero(np.abs(lam - 936.0) <= 20.0)
    i = int(band[np.argmax(big_t[band])])
    half = big_t[i] / 2.0
    lo = i - np.argmax(big_t[i::-1] < half)
    hi = i + np.argmax(big_t[i:] < half)
    left = np.interp(half, big_t[lo:lo + 2], lam[lo:lo + 2])
    right = np.interp(half, big_t[hi - 1:hi + 1][::-1], lam[hi - 1:hi + 1][::-1])
    step = lam[1] - lam[0]
    fwhm = right - left
    if abs(lam0 / fwhm - q) > q * 2.0 * step / fwhm:
        err.append(f"Q from the spectrum FWHM {lam0 / fwhm:.2f} != reported {q:.2f} "
                   f"within the {step:.3f} nm grid")

    heights, nas = cavity_inputs(seed)
    rows = np.loadtxt(os.path.join(out, "purcell", "purcell.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    h, waist, f_p = rows.T
    w_expect = 1000.0 / np.sqrt(1.0 + np.asarray(heights) / 20.0)  # 2 um defect
    if not (np.array_equal(h, heights)
            and np.allclose(waist, w_expect, rtol=1e-12, atol=0)):
        err.append(f"purcell.csv heights/waists {h}, {waist} != {heights}, {w_expect}")
    ratio = (f_p / f_p[0]) / (waist[0] ** 2 / waist ** 2)
    if np.max(np.abs(ratio - 1.0)) > 1e-9:
        err.append(f"Purcell ratios are not inverse squared-waist ratios: {ratio}")

    eff = _json(os.path.join(out, "efficiency", "efficiency.json"))
    if (eff["wavelength_nm"], eff["quality_factor"]) != (lam0, q):
        err.append("efficiency.json and resonance.json report different (lambda0, Q)")
    etas = eff["extraction_efficiency"]
    eta = [etas[f"{na:g}"] for na in sorted(nas)]
    if not (0.0 < etas["0.62"] < etas["0.7"] < 1.0
            and all(a < b for a, b in zip(eta, eta[1:]))):
        err.append(f"extraction efficiency does not rise within (0, 1) with NA: {etas}")
    return err


def check(workload, seed, out):
    return (check_cavity if workload == "cavity-design" else check_pipeline)(seed, out)
