"""One-dimensional transfer-matrix model of the DBR micro-cavity.

Reflectivity/transmissivity spectra, cavity resonance and Q, a Gaussian
lateral-mode Purcell and extraction estimate for the self-aligned defect
(closed forms on one `CavityMode` analysis of the stack), and the
photon-budget ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Defaults chosen so that the 68/82 nm quarter-wave pairs and the 270 nm
# spacer of the nominal structure resonate at 936 nm; overridable per stack.
N_GAAS = 3.46
N_ALAS = 2.845


@dataclass(frozen=True)
class Layer:
    refractive_index: float
    thickness: float  # nm

    def __post_init__(self):
        if not (np.isfinite(self.refractive_index) and self.refractive_index > 0):
            raise ValueError("refractive index must be positive and finite")
        if not (np.isfinite(self.thickness) and self.thickness >= 0):
            raise ValueError("thickness must be non-negative and finite")


@dataclass(frozen=True)
class LayerStack:
    """Ordered layers from the top (air side) to the substrate."""

    layers: tuple
    n_ambient: float = 1.0
    n_substrate: float = N_GAAS

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ValueError("layer stack must be non-empty")
        if self.n_ambient <= 0 or self.n_substrate <= 0:
            raise ValueError("ambient and substrate indices must be positive")
        object.__setattr__(self, "layers", tuple(self.layers))


@dataclass(frozen=True)
class DefectModel:
    """Self-aligned defect: dimple height and lateral diameter (nm)."""

    height: float = 20.0
    diameter: float = 2000.0

    def __post_init__(self):
        if not (0 < self.height < np.inf and 0 < self.diameter < np.inf):
            raise ValueError("defect height and diameter must be positive and finite")


def make_cavity_stack(bottom_pairs: int = 24, top_pairs: int = 5,
                      t_high: float = 68.0, t_low: float = 82.0,
                      t_cavity: float = 270.0,
                      n_high: float = N_GAAS, n_low: float = N_ALAS) -> LayerStack:
    """Nominal structure: top DBR, lambda spacer, bottom DBR on substrate.

    The spacer and the substrate are of the high-index material.
    """
    if bottom_pairs < 0 or top_pairs < 0:
        raise ValueError("mirror pair counts must be non-negative")
    layers = []
    for _ in range(top_pairs):
        layers.append(Layer(n_high, t_high))
        layers.append(Layer(n_low, t_low))
    layers.append(Layer(n_high, t_cavity))
    for _ in range(bottom_pairs):
        layers.append(Layer(n_low, t_low))
        layers.append(Layer(n_high, t_high))
    return LayerStack(tuple(layers), n_ambient=1.0, n_substrate=n_high)


def characteristic_matrix(stack: LayerStack, wavelengths) -> np.ndarray:
    """2x2 characteristic matrix per wavelength (normal incidence): each layer's
    [[cos, i sin / n], [i n sin, cos]] multiplies [[a, b], [c, d]] from the right,
    the product written out (Born & Wolf, Principles of Optics, sec. 1.6)."""
    lam = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    a, b = np.ones(len(lam), dtype=complex), np.zeros(len(lam), dtype=complex)
    c, d = b, a
    entries = {}  # (index, thickness) -> that layer's entries, each computed once
    for layer in stack.layers:
        if layer.thickness == 0.0:
            continue
        key = n, t = layer.refractive_index, layer.thickness
        if key not in entries:
            delta = 2.0 * np.pi * n * t / lam
            s = np.sin(delta)
            entries[key] = np.cos(delta), 1j * s / n, 1j * s * n
        e00, e01, e10 = entries[key]
        a, b = a * e00 + b * e10, a * e01 + b * e00
        c, d = c * e00 + d * e10, c * e01 + d * e00
    return np.stack([a, b, c, d], axis=-1).reshape(-1, 2, 2)


def _amplitudes(stack: LayerStack, wavelengths):
    m = characteristic_matrix(stack, wavelengths)
    na, ns = stack.n_ambient, stack.n_substrate
    num_r = na * m[:, 0, 0] + na * ns * m[:, 0, 1] - m[:, 1, 0] - ns * m[:, 1, 1]
    den = na * m[:, 0, 0] + na * ns * m[:, 0, 1] + m[:, 1, 0] + ns * m[:, 1, 1]
    r = num_r / den
    t = 2.0 * na / den
    return r, t


def transfer_matrix_spectrum(stack: LayerStack, wavelengths):
    """Reflectivity and transmissivity; R + T = 1 for lossless stacks."""
    lam = np.atleast_1d(np.asarray(wavelengths, dtype=float))
    r, t = _amplitudes(stack, lam)
    big_r = np.abs(r) ** 2
    big_t = (stack.n_substrate / stack.n_ambient) * np.abs(t) ** 2
    return big_r, big_t


class ResonanceNotFound(ValueError):
    pass


_FINE_POINTS = 65  # wavelengths per bracket and refinement step
_TOL = 1e-12  # nm; final bracket width


def cavity_resonance_and_q(stack: LayerStack) -> tuple[float, float]:
    """Transmission-peak wavelength and Q = lambda0 / FWHM.

    A 0.01 nm grid over 915-965 nm brackets the peak and both half-maximum
    crossings. Each refinement step evaluates one grid of `_FINE_POINTS`
    wavelengths per bracket and keeps the grid points around the target,
    until the bracket is `_TOL` wide.
    """
    lam = np.linspace(915.0, 965.0, 5001)
    _, t = transfer_matrix_spectrum(stack, lam)
    i = int(np.argmax(t))
    if i == 0 or i == len(lam) - 1:
        raise ResonanceNotFound(
            f"no interior transmission peak in {lam[0]:g}-{lam[-1]:g} nm")

    lo, hi = lam[i - 1], lam[i + 1]
    while hi - lo > _TOL:
        x = np.linspace(lo, hi, _FINE_POINTS)
        _, tx = transfer_matrix_spectrum(stack, x)
        k = int(np.argmax(tx))
        lo, hi = x[max(k - 1, 0)], x[min(k + 1, _FINE_POINTS - 1)]
    lam0, t_peak = float(x[k]), float(tx[k])
    if t_peak < 1e-6:
        raise ResonanceNotFound("transmission peak is vanishingly small")

    # each crossing lies in (outer, inner] with T(outer) < half <= T(inner): outer is the
    # nearest coarse point below half on that side of lam0, inner the next one or lam0
    half = t_peak / 2.0
    j = int(np.searchsorted(lam, lam0))  # lam[j - 1] < lam0 <= lam[j]
    left = np.flatnonzero(t[:j] < half)
    right = np.flatnonzero(t[j:] < half)
    if left.size == 0 or right.size == 0:
        raise ResonanceNotFound(
            f"the resonance FWHM extends beyond {lam[0]:g}-{lam[-1]:g} nm")
    left, right = left[-1], j + right[0]
    outer = np.array([lam[left], lam[right]])
    inner = np.array([min(lam[left + 1], lam0), max(lam[right - 1], lam0)])
    rows = np.arange(2)
    while np.max(np.abs(inner - outer)) > _TOL:
        x = np.linspace(outer, inner, _FINE_POINTS, axis=1)
        _, tx = transfer_matrix_spectrum(stack, x.ravel())
        # k >= 1, so every step keeps a sub-interval and the bracket shrinks
        k = 1 + np.argmax(tx.reshape(x.shape)[:, 1:] >= half, axis=1)
        outer, inner = x[rows, k - 1], x[rows, k]
    fwhm = float(np.diff(0.5 * (outer + inner))[0])
    return lam0, lam0 / fwhm


def split_cavity_stack(stack: LayerStack):
    """(top mirror, spacer, bottom mirror) around the thickest layer."""
    i_spacer = int(np.argmax([layer.thickness for layer in stack.layers]))
    spacer = stack.layers[i_spacer]
    # mirrors are described as seen from the cavity medium
    top_layers = tuple(reversed(stack.layers[:i_spacer]))
    top = LayerStack(top_layers or (Layer(spacer.refractive_index, 0.0),),
                     n_ambient=spacer.refractive_index, n_substrate=stack.n_ambient)
    bottom = LayerStack(stack.layers[i_spacer + 1:] or (Layer(spacer.refractive_index, 0.0),),
                        n_ambient=spacer.refractive_index, n_substrate=stack.n_substrate)
    return top, spacer, bottom


def _mirror_penetration_and_t(mirror: LayerStack, wavelength: float):
    """Field penetration depth (nm) and transmissivity T of one mirror.

    L_pen = (lambda^2 / (4 pi n_inc)) |d phi_r / d lambda|, evaluated for
    the mirror seen from the cavity medium (the stack's ambient index);
    one call at lambda -+ 0.01 nm gives the slope and at lambda gives T.
    """
    dl = 0.01
    r, t = _amplitudes(mirror, [wavelength - dl, wavelength, wavelength + dl])
    dphi = np.unwrap(np.angle(r[::2]))
    slope = (dphi[1] - dphi[0]) / (2.0 * dl)
    big_t = (mirror.n_substrate / mirror.n_ambient) * np.abs(t) ** 2
    return float(wavelength**2 / (4.0 * np.pi * mirror.n_ambient) * abs(slope)), big_t[1]


@dataclass(frozen=True)
class CavityMode:
    """The stack's resonance, analysed once for Purcell and extraction."""

    wavelength: float  # nm, lambda0
    q: float
    n_cavity: float  # spacer index
    effective_length: float  # nm, spacer plus both mirror penetration depths
    top_share: float  # photon escape share through the top mirror, T_top / (T_top + T_bot)


def cavity_mode(stack: LayerStack) -> CavityMode:
    """Resonance and Q, spacer and both mirrors of the stack, each evaluated once."""
    lam0, q = cavity_resonance_and_q(stack)
    top, spacer, bottom = split_cavity_stack(stack)
    l_top, t_top = _mirror_penetration_and_t(top, lam0)
    l_bot, t_bot = _mirror_penetration_and_t(bottom, lam0)
    return CavityMode(lam0, q, spacer.refractive_index, spacer.thickness + l_top + l_bot,
                      float(t_top / (t_top + t_bot)))


def mode_waist(defect: DefectModel) -> float:
    """Lateral Gaussian mode waist from the defect geometry (nm).

    The defect is reduced to a Gaussian confinement whose waist shrinks as
    the dimple height grows past a 20 nm reference height; a calibration,
    not a solved mode profile.
    """
    return float(0.5 * defect.diameter / np.sqrt(1.0 + defect.height / 20.0))


def purcell(mode: CavityMode, defect: DefectModel) -> float:
    """F_p = (3 / 4 pi^2) (lambda/n)^3 Q / V with V = (pi/4) w^2 L_eff."""
    w = mode_waist(defect)
    v_mode = (np.pi / 4.0) * w**2 * mode.effective_length
    return float(3.0 / (4.0 * np.pi**2) * (mode.wavelength / mode.n_cavity) ** 3
                 * mode.q / v_mode)


def extraction_efficiency(mode: CavityMode, defect: DefectModel, na: float) -> float:
    """Collection efficiency into an objective of the given NA.

    Product of the cavity-mode coupling beta = F_p / (F_p + 1), the
    top-mirror escape share, and the fraction of the Gaussian far field
    inside the NA cone.
    """
    if not (0.0 < na < 1.0):
        raise ValueError("NA must be in (0, 1)")
    f_p = purcell(mode, defect)
    beta = f_p / (f_p + 1.0)
    theta_div = mode.wavelength / (np.pi * mode_waist(defect))
    cone = 1.0 - np.exp(-2.0 * (na / theta_div) ** 2)
    return float(beta * mode.top_share * cone)


@dataclass(frozen=True)
class EfficiencyBudget:
    """Measured rate plus every efficiency factor in the detection chain."""

    count_rate: float  # counts/s
    rep_rate: float  # Hz
    blinking: float
    p_emit: float
    eta_detector: float
    eta_fiber: float
    eta_setup: float

    def __post_init__(self):
        if not (0 < self.count_rate < np.inf and 0 < self.rep_rate < np.inf):
            raise ValueError("rates must be positive and finite")
        for name in ("blinking", "p_emit", "eta_detector", "eta_fiber", "eta_setup"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1]")


def efficiency_budget(b: EfficiencyBudget) -> dict:
    """First-lens collection efficiency ledger, term by term."""
    denominator = (b.rep_rate * b.blinking * b.p_emit * b.eta_detector
                   * b.eta_fiber * b.eta_setup)
    eta = b.count_rate / denominator if denominator > 0 else np.inf
    if not 0.0 < eta < np.inf:  # the quotient or the denominator over- or underflows
        raise ValueError(f"first-lens efficiency {b.count_rate!r} / {denominator!r} "
                         "is not a positive finite number")
    if eta > 1.0:  # more counts than the source can send through the loss chain
        raise ValueError(f"first-lens efficiency {eta!r} exceeds 1")
    return {
        "count_rate_per_s": b.count_rate,
        "rep_rate_hz": b.rep_rate,
        "blinking": b.blinking,
        "p_emit": b.p_emit,
        "eta_detector": b.eta_detector,
        "eta_fiber": b.eta_fiber,
        "eta_setup": b.eta_setup,
        "denominator": denominator,
        "eta_first_lens": eta,
    }
