"""Two-qubit time-bin tomography.

The 16 projective settings (product of E, L, P, Pi per photon), Born-rule
count simulation, linear inversion through the dual basis, Poisson
maximum-likelihood reconstruction by a batched accelerated projected
gradient, and Monte-Carlo error bars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .qcore import (BELL_PHI_PLUS, DensityMatrix, _as_matrix, check_density_matrices,
                    concurrence, fidelity_to_state)
from .table import format_table, read_table


# the single-photon projection of each label
_LABELS = {
    "E": np.array([1.0, 0.0], dtype=complex),
    "L": np.array([0.0, 1.0], dtype=complex),
    "P": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "Pi": np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
}

# the canonical ordered schedule of 16 (xx, x) label pairs
SETTINGS = tuple((a, b) for a in _LABELS for b in _LABELS)

_KET_PAIRS = np.stack([np.kron(_LABELS[a], _LABELS[b]) for a, b in SETTINGS])
# the projectors |ket><ket| of SETTINGS, shape (16, 4, 4)
PROJECTORS = _KET_PAIRS[:, :, None] * _KET_PAIRS[:, None, :].conj()
PROJECTORS.flags.writeable = False

_COUNTS_COLUMNS = ("xx_proj", "x_proj", "count")


@dataclass
class CountsTable:
    """Accumulated coincidence counts, one entry per setting of `SETTINGS`."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (16,) or np.any(c < 0):
            raise ValueError("counts must be 16 non-negative integers")
        self.counts = c

    def to_csv(self) -> str:
        return format_table(
            _COUNTS_COLUMNS,
            ((xx, x, n) for (xx, x), n in zip(SETTINGS, self.counts.tolist())))

    @classmethod
    def from_csv(cls, text: str) -> "CountsTable":
        _, (xx, x, n) = read_table(text, _COUNTS_COLUMNS, "counts", (str, str, int))
        rows = {}
        for key, count in zip(zip(xx, x), n):
            if key not in SETTINGS:
                raise ValueError(f"counts file has unknown setting {key}")
            if key in rows:
                raise ValueError(f"counts file lists setting {key} twice")
            rows[key] = count
        missing = [key for key in SETTINGS if key not in rows]
        if missing:
            raise ValueError(f"counts file missing setting {missing[0]}")
        return cls(counts=[rows[key] for key in SETTINGS])


# row k maps vec(rho) (row-major) to Tr(rho Pi_k)
_DESIGN = PROJECTORS.transpose(0, 2, 1).reshape(16, 16)
# vec(H) @ _DESIGN_T gives every Tr(Pi_k H) of a stack of matrices at once;
# c @ _GRAD gives vec(sum_k c_k Pi_k), since Pi_k is Hermitian
_DESIGN_T = _DESIGN.T
_GRAD = _DESIGN.conj()


def probabilities(rho) -> np.ndarray:
    """Born-rule probabilities Tr(rho Pi_k) of every setting, shape (..., 16),
    for one density matrix or a stack of them."""
    m = _as_matrix(rho)
    return (m.reshape(m.shape[:-2] + (16,)) @ _DESIGN_T).real


def simulate_counts(rho, per_setting_cycles: int, efficiency_product: float, seed) -> CountsTable:
    """Poisson counts of mean per_setting_cycles * efficiency_product * Tr(rho Pi_k)."""
    if not (0.0 < efficiency_product <= 1.0):
        raise ValueError("efficiency_product must be in (0, 1]")
    means = per_setting_cycles * efficiency_product * probabilities(rho)
    r = rng.CounterRng(seed, rng.Stream.TOMO_COUNTS)
    return CountsTable(counts=r.poisson(means))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _linear_inversion(freqs: np.ndarray) -> np.ndarray:
    """Linear inversion of counts or frequencies, shape (..., 16)."""
    vec = np.linalg.solve(_DESIGN, freqs.T.astype(complex)).T
    m = _hermitian_part(vec.reshape(freqs.shape[:-1] + (4, 4)))
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if np.any(tr <= 0):
        raise ValueError("linear inversion produced a non-positive trace")
    return m / tr[..., None, None]


def linear_reconstruct(table: CountsTable) -> np.ndarray:
    """Linear inversion of the counts: Hermitian, unit trace, possibly non-positive."""
    return _linear_inversion(table.counts)


def _clip_psd(m: np.ndarray) -> np.ndarray:
    """The nearest positive semidefinite matrix of each Hermitian matrix in
    a stack: its eigenvalues clipped at 0."""
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.clip(vals, 0.0, None)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def project_to_physical(m: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace, for one matrix or
    a stack; a matrix with no positive eigenvalue becomes I/4."""
    p = _clip_psd(_hermitian_part(m))
    tr = np.trace(p, axis1=-2, axis2=-1).real[..., None, None]
    return np.where(tr > 0, p / np.where(tr > 0, tr, 1.0), np.eye(4) / 4.0)


@dataclass
class MleResult:
    rho: DensityMatrix
    log_likelihood: float
    converged: bool


def poisson_log_likelihood(table: CountsTable, rho) -> float:
    """Poisson log L = sum n_k ln mu_k - mu_k with mu_k = s * p_k.

    The scale s is its profile-likelihood optimum sum(n) / sum(p); the
    counts are summed as floats, since an int64 sum can wrap.
    """
    n = table.counts.astype(float)
    probs = np.clip(probabilities(rho), 1e-15, None)
    scale = n.sum() / probs.sum()
    mu = np.clip(scale * probs, 1e-300, None)
    return float(np.sum(n * np.log(mu) - mu))


_MLE_MAX_ITER = 10_000
# a fit has converged after this many consecutive iterations that lower its
# NLL by at most _MLE_STALL_TOL * sum(n); a momentum restart counts as one
_MLE_STALL_ITERS = 3
_MLE_STALL_TOL = 1e-12
# backtracking halvings per iteration before the step is given up
_MLE_MAX_HALVINGS = 64


def _nll_and_gradient(h: np.ndarray, n: np.ndarray):
    """Extended Poisson NLL sum_k mu_k - n_k ln mu_k, mu_k = Tr(Pi_k H),
    and its gradient sum_k (1 - n_k / mu_k) Pi_k, for each row of a stack
    of vec(H). A row where a counted setting has mu_k <= 0 is outside the
    domain: its NLL is infinite."""
    mu = (h @ _DESIGN_T).real
    counted = n > 0
    inside = (mu > 0) | ~counted
    mu_log = np.where(inside & counted, mu, 1.0)
    nll = np.sum(mu - n * np.log(mu_log), axis=1)
    nll[~inside.all(axis=1)] = np.inf
    grad = (1.0 - np.where(counted, n / mu_log, 0.0)) @ _GRAD
    return nll, grad


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(A^dagger B) for each row pair of two stacks of vec(H)."""
    return np.sum(a.real * b.real + a.imag * b.imag, axis=1)


@dataclass
class ApgResult:
    x: np.ndarray          # (m, 4, 4) unnormalised optimum H of each fit
    nfev: int              # NLL evaluations over all fits, backtracking included
    converged: np.ndarray  # (m,) bool: the stall rule, not the iteration cap, stopped it
    nit: np.ndarray        # (m,) iterations of each fit


def minimize(n: np.ndarray, h0: np.ndarray) -> ApgResult:
    """Poisson maximum likelihood for a stack of m count tables at once.

    Minimizes the extended NLL of `_nll_and_gradient` over unnormalised
    H >= 0 (its scale is free; at the optimum sum mu = sum n,
    so rho = H / Tr H maximizes `poisson_log_likelihood`) by accelerated
    projected gradient (Shang et al., PRA 95, 062336 (2017)): a Nesterov
    step from the extrapolated point, projected onto the positive cone by
    clipping eigenvalues. Each fit keeps its own step (first sum(n) / 16,
    halved until the quadratic bound holds, then grown by 1.25) and
    momentum; a step that would raise the NLL is not taken and restarts
    the momentum, so no fit ends above its start. A fit stops by the
    `_MLE_STALL_*` rule and then leaves the batch. n: (m, 16) counts;
    h0: (m, 4, 4) positive starting points.

    The loop holds the state of the fits still in the batch only, in row
    order, and compacts it on the iterations where a fit leaves. Each NumPy
    call sees the rows of the fits it works on, in row order: a one-row
    product takes another path than a stack and may differ in the last bit.
    """
    m = len(n)
    tol = _MLE_STALL_TOL * n.sum(axis=1)
    step = n.sum(axis=1) / 16.0
    x = h0.reshape(m, 16).astype(complex)
    fx, gx = _nll_and_gradient(x, n)
    nfev = m
    x_prev = x
    theta = np.ones(m)
    stalls = np.zeros(m, dtype=int)
    nit = np.zeros(m, dtype=int)
    rows = np.arange(m)  # the row of each fit still in the batch
    x_out, stalls_out, nit_out = np.empty_like(x), np.empty_like(stalls), np.empty_like(nit)
    while rows.size:
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta ** 2))
        beta = (theta - 1.0) / theta_next
        y, fy, gy = x, fx, gx
        moved = np.flatnonzero(beta > 0)
        if moved.size:
            ym = x[moved] + beta[moved, None] * (x[moved] - x_prev[moved])
            fm, gm = _nll_and_gradient(ym, n[moved])
            nfev += moved.size
            ok = np.isfinite(fm)  # else take a plain gradient step from x
            y, fy, gy = x.copy(), fx.copy(), gx.copy()
            y[moved[ok]], fy[moved[ok]], gy[moved[ok]] = ym[ok], fm[ok], gm[ok]

        # the first try takes every fit, the halvings those that backtrack
        t = step.copy()
        z = _clip_psd((y - t[:, None] * gy).reshape(-1, 4, 4)).reshape(-1, 16)
        fz, gz = _nll_and_gradient(z, n)
        nfev += rows.size
        d = z - y
        todo = np.flatnonzero(~(fz <= fy + _inner(gy, d) + _inner(d, d) / (2.0 * t)))
        for _ in range(_MLE_MAX_HALVINGS - 1):
            if not todo.size:
                break
            t[todo] *= 0.5
            zt = _clip_psd((y[todo] - t[todo, None] * gy[todo]).reshape(-1, 4, 4)).reshape(-1, 16)
            ft, gt = _nll_and_gradient(zt, n[todo])
            nfev += todo.size
            d = zt - y[todo]
            bound = fy[todo] + _inner(gy[todo], d) + _inner(d, d) / (2.0 * t[todo])
            z[todo], fz[todo], gz[todo] = zt, ft, gt
            todo = todo[~(ft <= bound)]
        t[todo] *= 0.5
        step = 1.25 * t

        rose = ~(fz <= fx)
        decrease = np.where(rose, 0.0, fx - fz)
        z[rose], fz[rose], gz[rose] = x[rose], fx[rose], gx[rose]
        x_prev, x, fx, gx = x, z, fz, gz
        theta = np.where(rose, 1.0, theta_next)
        stalls = np.where(decrease <= tol, stalls + 1, 0)
        nit += 1
        stay = (stalls < _MLE_STALL_ITERS) & (nit < _MLE_MAX_ITER)
        if not stay.all():
            gone = rows[~stay]
            x_out[gone], stalls_out[gone], nit_out[gone] = x[~stay], stalls[~stay], nit[~stay]
            rows, n, tol, step, x, fx, gx, x_prev, theta, stalls, nit = (
                a[stay] for a in (rows, n, tol, step, x, fx, gx, x_prev, theta, stalls, nit))
    return ApgResult(x=x_out.reshape(m, 4, 4), nfev=int(nfev),
                     converged=stalls_out >= _MLE_STALL_ITERS, nit=nit_out)


def _fit(counts: np.ndarray):
    """Maximum-likelihood density matrices of a stack of count tables, shape
    (m, 16), as an (m, 4, 4) array, and whether each fit converged.

    Every fit starts from its projected linear inversion, scaled to the
    counts; all of them run as one `minimize` batch.
    """
    n = counts.astype(float)
    rho0 = project_to_physical(_linear_inversion(n))
    scale = n.sum(axis=1) / np.sum(probabilities(rho0), axis=1)
    res = minimize(n, scale[:, None, None] * rho0)
    rho = res.x / np.trace(res.x, axis1=-2, axis2=-1).real[:, None, None]
    return _hermitian_part(rho), res.converged


def mle_reconstruct(table: CountsTable) -> MleResult:
    """Maximum-likelihood density matrix: `minimize` on a batch of one."""
    rho, converged = _fit(table.counts[None])
    rho = DensityMatrix(rho[0])
    ll = poisson_log_likelihood(table, rho)
    return MleResult(rho=rho, log_likelihood=ll, converged=bool(converged[0]))


def _resample(table: CountsTable, runs: int, seed) -> np.ndarray:
    """`runs` Poisson resamples of the counts, (runs, 16), in one draw: count i
    of resample k is the draw at counter i of stream `TOMO_RESAMPLE` + k, as
    `CounterRng(seed, TOMO_RESAMPLE + k).poisson` would give it."""
    streams = np.array([rng.stream_seed(seed, rng.Stream.TOMO_RESAMPLE + k)
                        for k in range(runs)])
    keys = rng.random_u64(streams[:, None], np.arange(16, dtype=np.uint64))
    return rng.poisson(keys, table.counts.astype(float))


def monte_carlo_errors(table: CountsTable, runs: int = 50, seed=0) -> tuple[float, float, int]:
    """Poisson-resampled spread (sample std over `runs`) of the concurrence
    and of the fidelity to (|ee>+|ll>)/sqrt(2), and the number of resample
    fits that converged. All resamples are fitted as one batch, and their
    density matrices are checked and measured as one stack."""
    if runs < 2:
        raise ValueError("need at least 2 Monte Carlo runs")
    counts = _resample(table, runs, seed)
    rhos, converged = _fit(counts)
    check_density_matrices(rhos)
    cs = concurrence(rhos)
    fs = fidelity_to_state(rhos, BELL_PHI_PLUS)
    return float(np.std(cs, ddof=1)), float(np.std(fs, ddof=1)), int(converged.sum())


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
    mc_converged: int  # Monte-Carlo resample fits that converged


def reconstruct(table: CountsTable, mc_runs: int = 50, seed=0) -> ReconstructionResult:
    """Full pipeline: linear inversion warm start, MLE, Monte-Carlo errors.

    Reports fidelity both to the fixed-phase Bell state (|ee>+|ll>)/sqrt(2)
    and maximized over the Bell phase. The observed table is fitted on its
    own, so its rho does not depend on `mc_runs`.
    """
    mle = mle_reconstruct(table)
    m = mle.rho.matrix
    fid = fidelity_to_state(mle.rho, BELL_PHI_PLUS)
    fid_opt = float(0.5 * (m[0, 0].real + m[3, 3].real) + abs(m[0, 3]))
    c_err, f_err, mc_converged = monte_carlo_errors(table, runs=mc_runs, seed=seed)
    return ReconstructionResult(
        rho=mle.rho,
        concurrence=concurrence(mle.rho),
        fidelity=fid,
        fidelity_phase_optimized=fid_opt,
        concurrence_err=c_err,
        fidelity_err=f_err,
        log_likelihood=mle.log_likelihood,
        converged=mle.converged,
        mc_converged=mc_converged,
    )

