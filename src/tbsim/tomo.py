"""Two-qubit time-bin tomography.

The 16 projective settings (product of E, L, P, Pi per photon), Born-rule
count simulation, linear inversion through the dual basis, Cholesky-
parametrized Poisson maximum-likelihood reconstruction, and Monte-Carlo
error bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import optics, rng
from .qcore import BELL_PHI_PLUS, DensityMatrix, concurrence, fidelity_to_state
from .table import format_table, read_table

PROJECTOR_LABELS = ("E", "L", "P", "Pi")

_KETS = {
    "E": np.array([1.0, 0.0], dtype=complex),
    "L": np.array([0.0, 1.0], dtype=complex),
    "P": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "Pi": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

# arrival-slot acceptance of the analysis interferometer per projector:
# time-basis projections use one path (amplitude 1/2 -> weight 1/4), the
# superposition bases use the overlap slot (weight 1/2)
SLOT_WEIGHTS = {"E": 0.25, "L": 0.25, "P": 0.5, "Pi": 0.5}

_COUNTS_COLUMNS = ("xx_proj", "x_proj", "count")

_MLE_MAX_ITER = 10_000
_MLE_FTOL = 1e-10


@dataclass(frozen=True)
class TomographySetting:
    xx_projector: str
    x_projector: str

    def __post_init__(self):
        for p in (self.xx_projector, self.x_projector):
            if p not in PROJECTOR_LABELS:
                raise ValueError(f"unknown projector label {p!r}")

    def ket(self) -> np.ndarray:
        return np.kron(_KETS[self.xx_projector], _KETS[self.x_projector])

    def operator(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


def tomography_settings() -> list[TomographySetting]:
    """The canonical ordered schedule of 16 settings."""
    return [TomographySetting(a, b) for a in PROJECTOR_LABELS for b in PROJECTOR_LABELS]


def slot_exposure_weights() -> np.ndarray:
    """Relative per-setting exposure of the interferometric analyzers."""
    return np.array(
        [SLOT_WEIGHTS[s.xx_projector] * SLOT_WEIGHTS[s.x_projector]
         for s in tomography_settings()]
    )


@dataclass
class CountsTable:
    """Accumulated coincidence counts, one entry per setting.

    `exposures` holds relative per-setting Poisson exposure; uniform
    acquisition (the Born-level sampler) leaves it at ones, the
    interferometric event pipeline uses the slot acceptance weights.
    """

    counts: np.ndarray
    acquisition_cycles: int = 0
    exposures: np.ndarray = field(default_factory=lambda: np.ones(16))
    settings: list = field(default_factory=tomography_settings)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (16,) or np.any(c < 0):
            raise ValueError("counts must be 16 non-negative integers")
        self.counts = c
        e = np.asarray(self.exposures, dtype=float)
        if e.shape != (16,) or np.any(e <= 0):
            raise ValueError("exposures must be 16 positive weights")
        self.exposures = e
        if len(self.settings) != 16:
            raise ValueError("expected exactly 16 settings")

    def to_csv(self) -> str:
        return format_table(
            _COUNTS_COLUMNS,
            ((s.xx_projector, s.x_projector, n)
             for s, n in zip(self.settings, self.counts.tolist())))

    @classmethod
    def from_csv(cls, text: str, exposures=None) -> "CountsTable":
        _, (xx, x, n) = read_table(text, _COUNTS_COLUMNS, "counts", (str, str, int))
        expected = [(s.xx_projector, s.x_projector) for s in tomography_settings()]
        rows = {}
        for key, count in zip(zip(xx, x), n):
            if key not in expected:
                raise ValueError(f"counts file has unknown setting {key}")
            if key in rows:
                raise ValueError(f"counts file lists setting {key} twice")
            rows[key] = count
        missing = [key for key in expected if key not in rows]
        if missing:
            raise ValueError(f"counts file missing setting {missing[0]}")
        kwargs = {} if exposures is None else {"exposures": exposures}
        return cls(counts=[rows[key] for key in expected], **kwargs)


def expected_probability(rho, setting: TomographySetting) -> float:
    """Born-rule probability Tr(rho P_xx x P_x)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return float(np.trace(m @ setting.operator()).real)


def simulate_counts(rho, per_setting_cycles: int, efficiency_product: float, seed) -> CountsTable:
    """Poisson counts with uniform per-setting exposure."""
    if not (0.0 < efficiency_product <= 1.0):
        raise ValueError("efficiency_product must be in (0, 1]")
    settings = tomography_settings()
    means = np.array(
        [per_setting_cycles * efficiency_product * expected_probability(rho, s)
         for s in settings]
    )
    r = rng.CounterRng(seed, 60)
    return CountsTable(counts=r.poisson(means), acquisition_cycles=per_setting_cycles)


def _design_matrix() -> np.ndarray:
    # row k maps vec(rho) (row-major) to Tr(rho Pi_k)
    return np.stack([s.operator().T.reshape(16) for s in tomography_settings()])


_DESIGN = _design_matrix()


def linear_reconstruct(table: CountsTable) -> np.ndarray:
    """Exposure-corrected linear inversion; Hermitian, unit trace,
    possibly non-positive."""
    freqs = table.counts / table.exposures
    try:
        vec = np.linalg.solve(_DESIGN, freqs.astype(complex))
    except np.linalg.LinAlgError as exc:  # cannot occur for the canonical settings
        raise RuntimeError("singular tomography design matrix") from exc
    m = vec.reshape(4, 4)
    m = 0.5 * (m + m.conj().T)
    tr = m.trace().real
    if tr <= 0:
        raise ValueError("linear inversion produced a non-positive trace")
    return m / tr


def project_to_physical(m: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace."""
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0:
        return np.eye(4, dtype=complex) / 4.0
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T


_LOWER_IDX = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _t_from_params(t: np.ndarray) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[np.diag_indices(4)] = t[:4]
    for j, (r, c) in enumerate(_LOWER_IDX):
        m[r, c] = t[4 + 2 * j] + 1j * t[5 + 2 * j]
    return m


def _params_from_t(m: np.ndarray) -> np.ndarray:
    t = np.empty(16)
    t[:4] = np.diag(m).real
    for j, (r, c) in enumerate(_LOWER_IDX):
        t[4 + 2 * j] = m[r, c].real
        t[5 + 2 * j] = m[r, c].imag
    return t


@dataclass
class MleResult:
    rho: DensityMatrix
    log_likelihood: float
    converged: bool


def poisson_log_likelihood(table: CountsTable, rho, scale: float | None = None) -> float:
    """Poisson log L = sum n_k ln mu_k - mu_k with mu_k = s * w_k * p_k.

    When `scale` is omitted the profile-likelihood optimum s* is used.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    probs = np.array([expected_probability(m, s) for s in table.settings])
    probs = np.clip(probs, 1e-15, None)
    wp = table.exposures * probs
    if scale is None:
        scale = table.counts.sum() / wp.sum()
    mu = np.clip(scale * wp, 1e-300, None)
    return float(np.sum(table.counts * np.log(mu) - mu))


def mle_reconstruct(table: CountsTable, init: np.ndarray | None = None) -> MleResult:
    """Maximum-likelihood density matrix via the Cholesky parametrization.

    rho = T T^dagger / Tr(T T^dagger) with T lower triangular (16 real
    parameters); the overall scale of T absorbs the Poisson exposure, so
    the likelihood is optimized jointly in shape and normalization.
    """
    if init is None:
        init = linear_reconstruct(table)
    rho0 = project_to_physical(init)
    ops = np.stack([s.operator() for s in table.settings])
    w = table.exposures
    n = table.counts.astype(float)

    scale0 = n.sum() / np.sum(w * np.real(np.einsum("kij,ji->k", ops, rho0)))
    t0 = _params_from_t(np.linalg.cholesky(
        scale0 * (rho0 + 1e-8 * np.eye(4)) / (1.0 + 4e-8)
    ))

    def objective(t):
        tm = _t_from_params(t)
        h = tm @ tm.conj().T
        mu = w * np.clip(np.real(np.einsum("kij,ji->k", ops, h)), 1e-12, None)
        nll = float(np.sum(mu - n * np.log(mu)))
        coeff = w * (1.0 - n / mu)
        g = np.einsum("k,kij->ij", coeff, ops)
        gt = tm.conj().T @ g  # d nll / dT via 2 Re Tr(T^dag G dT)
        grad = np.empty(16)
        grad[:4] = 2.0 * np.real(np.diag(gt))
        for j, (r, c) in enumerate(_LOWER_IDX):
            grad[4 + 2 * j] = 2.0 * gt[c, r].real
            grad[5 + 2 * j] = -2.0 * gt[c, r].imag
        return nll, grad

    res = minimize(objective, t0, jac=True, method="L-BFGS-B",
                   options={"maxiter": _MLE_MAX_ITER, "ftol": _MLE_FTOL,
                            "maxfun": 10 * _MLE_MAX_ITER})
    best_t = res.x if res.fun <= objective(t0)[0] else t0
    tm = _t_from_params(best_t)
    h = tm @ tm.conj().T
    rho = h / h.trace().real
    rho = DensityMatrix(0.5 * (rho + rho.conj().T))
    ll = poisson_log_likelihood(table, rho)
    return MleResult(rho=rho, log_likelihood=ll, converged=bool(res.success))


def monte_carlo_errors(table: CountsTable, runs: int = 50, seed=0,
                       target=BELL_PHI_PLUS) -> tuple[float, float]:
    """Poisson-resampled reconstruction spread (sample std over `runs`)."""
    if runs < 2:
        raise ValueError("need at least 2 Monte Carlo runs")
    cs, fs = [], []
    for k in range(runs):
        r = rng.CounterRng(seed, 70 + k)
        resampled = CountsTable(
            counts=r.poisson(table.counts.astype(float)),
            acquisition_cycles=table.acquisition_cycles,
            exposures=table.exposures,
        )
        rho = mle_reconstruct(resampled).rho
        cs.append(concurrence(rho))
        fs.append(fidelity_to_state(rho, target))
    return float(np.std(cs, ddof=1)), float(np.std(fs, ddof=1))


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    concurrence: float
    fidelity: float
    fidelity_phase_optimized: float
    concurrence_err: float
    fidelity_err: float
    log_likelihood: float
    converged: bool


def reconstruct(table: CountsTable, mc_runs: int = 50, seed=0) -> ReconstructionResult:
    """Full pipeline: linear inversion warm start, MLE, Monte-Carlo errors.

    Reports fidelity both to the fixed-phase Bell state (|ee>+|ll>)/sqrt(2)
    and maximized over the Bell phase.
    """
    mle = mle_reconstruct(table)
    m = mle.rho.matrix
    fid = fidelity_to_state(mle.rho, BELL_PHI_PLUS)
    fid_opt = float(0.5 * (m[0, 0].real + m[3, 3].real) + abs(m[0, 3]))
    c_err, f_err = monte_carlo_errors(table, runs=mc_runs, seed=seed)
    return ReconstructionResult(
        rho=mle.rho,
        concurrence=concurrence(mle.rho),
        fidelity=fid,
        fidelity_phase_optimized=fid_opt,
        concurrence_err=c_err,
        fidelity_err=f_err,
        log_likelihood=mle.log_likelihood,
        converged=mle.converged,
    )


_ANALYZER_PHASE = {"E": 0.0, "L": 0.0, "P": 0.0, "Pi": np.pi / 2.0}
_ANALYZER_SLOT = {"E": 0, "L": 2, "P": 1, "Pi": 1}


def simulate_tomography_via_events(emitter, state, detectors, cycles_per_setting: int,
                                   seed, delay: float = 3000.0,
                                   window: float = 500.0) -> CountsTable:
    """Event-level tomography: one interferometric run per setting.

    Each setting fixes the analyzer phases, runs the full time-bin Monte
    Carlo, and counts same-cycle coincidences in the slot pair selected by
    the projectors.  Exposures carry the slot acceptance weights.
    """
    counts = np.empty(16, dtype=np.int64)
    for k, s in enumerate(tomography_settings()):
        an_xx = optics.Interferometer(delay=delay, phase=_ANALYZER_PHASE[s.xx_projector])
        an_x = optics.Interferometer(delay=delay, phase=_ANALYZER_PHASE[s.x_projector])
        events = optics.simulate_timebin_run(
            emitter, state, (an_xx, an_x), detectors, cycles_per_setting,
            rng.stream_seed(seed, 1000 + k),
        )
        slots = optics.timebin_slot_counts(events, emitter.rep_period, delay, window)
        counts[k] = slots[_ANALYZER_SLOT[s.xx_projector], _ANALYZER_SLOT[s.x_projector]]
    return CountsTable(counts=counts, acquisition_cycles=cycles_per_setting,
                       exposures=slot_exposure_weights())
