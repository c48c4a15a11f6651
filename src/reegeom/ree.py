"""Quantum relative entropy and the numerical entanglement minimizer.

`relative_entropy` is the shared metric.  `ree_numeric` minimizes it over
mixtures of product states (the separable set for two qubits) by multi-start
quasi-Newton descent with an analytic gradient; it is the independent oracle
against which the geometric constructions are verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidState, NotSolvableFamily
from .qstate import validate_density_matrix

SUPPORT_TOL = 1e-12
LOG_CLAMP = 1e-300


@dataclass
class OracleConfig:
    """Settings for the product-mixture minimizer.

    ensemble_size stays above 16, the Caratheodory bound for the
    15-dimensional two-qubit state space, so the ansatz is not limiting.
    """

    ensemble_size: int = 20
    max_iterations: int = 600
    step_tolerance: float = 1e-9
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.ensemble_size < 16:
            raise ValueError("ensemble size must be at least 16")


@dataclass
class ReeReport:
    value: float
    css_numeric: np.ndarray | None = None
    css_geometric: np.ndarray | None = None
    gap: float = float("nan")
    iterations: int = 0
    converged: bool = True
    restart_values: list = field(default_factory=list)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray,
                     support_tol: float = SUPPORT_TOL) -> float:
    """S(rho||sigma) = tr(rho ln rho - rho ln sigma), in nats.

    Returns math.inf when rho's support is not contained in sigma's
    (weight beyond support_tol on sigma's kernel).  0 ln 0 is 0.  Raises
    InvalidState when either matrix has a NaN or infinite entry.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for m in (rho, sigma):
        if not np.isfinite(m).all():
            raise InvalidState("finite entries", float(np.sum(~np.isfinite(m))))
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    p = np.clip(p, 0.0, None)

    kernel = q <= support_tol
    if np.any(kernel):
        k = v[:, kernel]
        leak = float(np.real(np.trace(k.conj().T @ rho @ k)))
        if leak > support_tol:
            return math.inf

    overlap = np.abs(u.conj().T @ v) ** 2
    pos_p = p > SUPPORT_TOL
    s_rho = float(np.sum(p[pos_p] * np.log(p[pos_p])))
    support = ~kernel
    lnq = np.log(np.clip(q[support], LOG_CLAMP, None))
    cross = float(p[pos_p] @ overlap[np.ix_(pos_p, support)] @ lnq)
    return s_rho - cross


def _log_gradient(rho: np.ndarray, sigma: np.ndarray):
    """(g, G): g = -tr(rho ln sigma), and Hermitian G with dg = Re tr(dSigma G).

    Daleckii-Krein divided differences of ln on sigma's spectrum.
    """
    q, v = np.linalg.eigh(sigma)
    qc = np.clip(q, 1e-18, None)
    lnq = np.log(qc)
    b = v.conj().T @ rho @ v
    g = -float(np.real(np.trace(np.diag(lnq) @ b)))
    dq = qc[:, None] - qc[None, :]
    dl = lnq[:, None] - lnq[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(dq) > 1e-14, dl / np.where(dq == 0, 1, dq),
                         1.0 / qc[:, None])
    grad = -v @ (ratio * b) @ v.conj().T
    return g, grad


def _ansatz(params: np.ndarray, k: int):
    """Mixture weights, product vectors, and per-term projector data."""
    w = params[:k]
    th_a, ph_a = params[k:2 * k], params[2 * k:3 * k]
    th_b, ph_b = params[3 * k:4 * k], params[4 * k:5 * k]
    ew = np.exp(w - np.max(w))
    p = ew / np.sum(ew)
    a = np.stack([np.cos(th_a / 2), np.exp(1j * ph_a) * np.sin(th_a / 2)], axis=1)
    b = np.stack([np.cos(th_b / 2), np.exp(1j * ph_b) * np.sin(th_b / 2)], axis=1)
    c = np.einsum("ki,kj->kij", a, b).reshape(k, 4)
    return p, a, b, c


def _sigma_from(p, c):
    return np.einsum("k,ki,kj->ij", p, c, c.conj())


def _objective(params, rho, k, s_rho):
    p, a, b, c = _ansatz(params, k)
    sigma = _sigma_from(p, c)
    g, grad = _log_gradient(rho, sigma)

    # per-term directional data: t_k = Re <c_k| G |c_k>
    t = np.real(np.einsum("ki,ik->k", c.conj(), grad @ c.T))

    dw = p * (t - float(p @ t))

    # angle derivatives through the product vectors
    th_a, ph_a = params[k:2 * k], params[2 * k:3 * k]
    th_b, ph_b = params[3 * k:4 * k], params[4 * k:5 * k]
    da_dth = np.stack([-np.sin(th_a / 2) / 2,
                       np.exp(1j * ph_a) * np.cos(th_a / 2) / 2], axis=1)
    da_dph = np.stack([np.zeros(k), 1j * np.exp(1j * ph_a) * np.sin(th_a / 2)], axis=1)
    db_dth = np.stack([-np.sin(th_b / 2) / 2,
                       np.exp(1j * ph_b) * np.cos(th_b / 2) / 2], axis=1)
    db_dph = np.stack([np.zeros(k), 1j * np.exp(1j * ph_b) * np.sin(th_b / 2)], axis=1)

    def pair_grad(dv_a, dv_b):
        dc = np.einsum("ki,kj->kij", dv_a, dv_b).reshape(k, 4)
        return 2 * p * np.real(np.einsum("ki,ik->k", dc.conj(), grad @ c.T))

    dth_a = pair_grad(da_dth, b)
    dph_a = pair_grad(da_dph, b)
    dth_b = pair_grad(a, db_dth)
    dph_b = pair_grad(a, db_dph)

    jac = np.concatenate([dw, dth_a, dph_a, dth_b, dph_b])
    return s_rho + g, jac


def ree_numeric(rho: np.ndarray, cfg: OracleConfig | None = None) -> ReeReport:
    """Minimize S(rho||sigma) over product-state mixtures.

    The objective is convex in sigma, so any minimum over the separable set
    is global; the angle/weight parameterization is not convex, hence the
    seeded restarts.  `converged` requires the best value to be reproduced
    by at least three restarts within 1e-3.
    """
    from scipy.optimize import minimize  # keeps scipy out of `import reegeom`
    if cfg is None:
        cfg = OracleConfig()
    validate_density_matrix(rho)
    rho = np.asarray(rho, dtype=complex)
    k = cfg.ensemble_size
    p_eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    pos = p_eigs > SUPPORT_TOL
    s_rho = float(np.sum(p_eigs[pos] * np.log(p_eigs[pos])))

    rng = np.random.default_rng(cfg.seed)
    results = []
    iterations = 0
    for _ in range(cfg.restarts):
        x0 = np.concatenate([
            rng.normal(scale=0.5, size=k),
            rng.uniform(0, np.pi, size=k),
            rng.uniform(0, 2 * np.pi, size=k),
            rng.uniform(0, np.pi, size=k),
            rng.uniform(0, 2 * np.pi, size=k),
        ])
        res = minimize(_objective, x0, args=(rho, k, s_rho), jac=True,
                       method="L-BFGS-B",
                       options={"maxiter": cfg.max_iterations,
                                "ftol": cfg.step_tolerance, "gtol": 1e-10})
        iterations += res.nit
        results.append((float(res.fun), res.x))

    results.sort(key=lambda t: t[0])
    best_val, best_x = results[0]
    vals = [v for v, _ in results]
    converged = len(vals) >= 3 and vals[2] - vals[0] <= 1e-3
    p, _, _, c = _ansatz(best_x, k)
    sigma = _sigma_from(p, c)
    return ReeReport(value=max(best_val, 0.0), css_numeric=sigma,
                     iterations=iterations, converged=converged,
                     restart_values=vals)


def ree_geometric(rho: np.ndarray) -> ReeReport:
    """REE through the geometric closest-separable-state constructions."""
    from .css import FamilyKind, css_auto

    result = css_auto(rho, numeric_fallback=False)
    if result.family.kind is FamilyKind.OTHER:
        raise NotSolvableFamily("no geometric construction for this state")
    return ReeReport(value=result.ree, css_geometric=result.css,
                     converged=True)


def _random_product_state(rng) -> np.ndarray:
    vs = []
    for _ in range(2):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        vs.append(v / np.linalg.norm(v))
    c = np.kron(vs[0], vs[1])
    return np.outer(c, c.conj())


def directional_optimality_check(rho: np.ndarray, css: np.ndarray,
                                 n_directions: int = 64, seed: int = 0,
                                 eps: tuple[float, float] = (1e-5, 1e-6)) -> float:
    """First-order optimality certificate for a claimed closest separable state.

    Minimum over sampled product-state directions of the one-sided derivative
    d/de S(rho||(1-e) css + e sigma') at e = 0+, by two-step finite
    differences with Richardson extrapolation.  Product states are the
    extreme points of the separable set, so sampling them suffices.
    A true minimizer gives a nonnegative result (up to ~1e-8); a css at
    S(rho||css) = inf gives -inf.
    """
    rng = np.random.default_rng(seed)
    s0 = relative_entropy(rho, css)
    if math.isinf(s0):
        return -math.inf  # no state at infinite relative entropy is a minimizer
    e1, e2 = eps
    best = math.inf
    for _ in range(n_directions):
        sp = _random_product_state(rng)
        d1 = (relative_entropy(rho, (1 - e1) * css + e1 * sp) - s0) / e1
        d2 = (relative_entropy(rho, (1 - e2) * css + e2 * sp) - s0) / e2
        deriv = (e1 * d2 - e2 * d1) / (e1 - e2)
        best = min(best, deriv)
    return float(best)
