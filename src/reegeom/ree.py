"""Quantum relative entropy and the numerical entanglement minimizer.

`relative_entropy` is the shared metric.  `ree_numeric` minimizes it over the
separable states, which for two qubits are the PPT states (Horodecki,
Horodecki & Horodecki, PLA 223, 1 (1996)): damped Newton on a log-barrier
for sigma >= 0 and sigma^Gamma >= 0 in the 15 Pauli coordinates, followed
by a Frank-Wolfe gap (Jaggi, ICML 2013), bounded through the barrier's dual,
that brackets the minimum.  It is the independent oracle against which the
geometric constructions are verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, NotSolvableFamily
from .qstate import PAULI_BASIS, partial_transpose, validate_density_matrix

SUPPORT_TOL = 1e-12
LOG_CLAMP = 1e-300
# barrier weights of the central path: 1, 0.1, ..., 1e-9; the excess of the
# path's end over the optimum is at most 8 * 1e-9 (barrier parameter 8)
MU_SCHEDULE = tuple(10.0 ** -k for k in range(10))
# a stage ends where half the squared Newton decrement of F / mu, the
# self-concordant barrier function, is at most CENTERING_TOL: 1e-12 at mu = 1e-9
CENTERING_TOL = 1e-3
ARMIJO_C = 0.25  # sufficient-decrease fraction of the backtracking step
MAX_HALVINGS = 30  # backtracking halvings before a stage counts as stalled
POLISH_STEPS = 3  # full Newton steps at the last weight, kept while the decrement shrinks
HESSIAN_FLOOR = 1e-14  # diagonal shift of the Newton system, as a fraction of tr H
DIVIDED_SPREAD = 1e-5  # relative spread below which a second divided difference takes its limit
BRACKET_TOL = 1e-6  # widest bracket value - lower that counts as converged
# rounding allowance taken off the lower end: the bound's minimizing vector
# lies in sigma's support, where G carries rounding of order eps, not the
# eps / lambda_min(sigma) of G's entries on sigma's near-kernel
BRACKET_ROUNDING = 1e-12
CERTIFICATE_SEED = 0
CERTIFICATE_STEPS = (1e-5, 1e-6)  # finite-difference steps, Richardson pair

# sigma = I/4 + sum_k x_k B_k with B_k = (sigma_a (x) sigma_b) / 4, k = 4a + b - 1;
# sigma^Gamma flips the coordinates with sigma_y on qubit B (sigma_y^T = -sigma_y)
_B = PAULI_BASIS[1:].reshape(15, 4, 4) / 4
_PT_SIGN = np.array([-1.0 if k % 4 == 2 else 1.0 for k in range(1, 16)])
_DIRECTIONS_FLAT = np.stack([_B, _PT_SIGN[:, None, None] * _B]).reshape(2, 15, 16)
_B_FLAT = _B.reshape(15, 16)
_X_SIGNS = np.stack([np.ones(15), _PT_SIGN])  # x -> the coordinates of sigma, sigma^Gamma
_EYE_FLAT = (np.eye(4) / 4).reshape(16)
# index triples (lo, mid, hi) of the second divided differences, (3, 64), each
# sorted ascending, so that they pick sorted triples out of eigh's ascending
# spectrum; sorted in Python, because numpy's sort pages in 0.4 MB of code at
# import.  _PAIRS holds the flat indices of l1[hi, mid] and l1[mid, lo].
_TRIPLES = np.array([sorted(t) for t in itertools.product(range(4), repeat=3)]).T
_PAIRS = np.stack([4 * _TRIPLES[2] + _TRIPLES[1], 4 * _TRIPLES[1] + _TRIPLES[0]])


@dataclass
class OracleConfig:
    """Budget of the barrier oracle: at most `max_iterations` accepted
    steps, tangent predictor steps included.

    `seed` and `restarts` are accepted and ignored; the barrier path is
    deterministic and starts at I/4.
    """

    max_iterations: int = 600
    restarts: int = 8
    seed: int = 0


@dataclass
class ReeReport:
    """From `ree_numeric`: `value` = S(rho || css_numeric), and the REE lies
    in [lower, value] with gap = value - lower."""

    value: float
    css_numeric: np.ndarray | None = None
    css_geometric: np.ndarray | None = None
    gap: float = float("nan")
    iterations: int = 0
    converged: bool = True
    lower: float = float("nan")


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float | np.ndarray:
    """S(rho||sigma) = tr(rho ln rho - rho ln sigma), in nats.

    `sigma` is one matrix or a stack of shape (..., 4, 4): rho is
    diagonalized once and the stack in one `eigh`.  Returns a float for one
    sigma and an array of shape (...) for a stack.  An entry is math.inf when
    rho's support is not contained in that sigma's (weight beyond
    SUPPORT_TOL on its kernel).  0 ln 0 is 0.  Raises InvalidState when rho
    or any sigma has a NaN or infinite entry.  When the stacked sigmas share
    one rank, each value equals that of its own call bit for bit; across
    ranks, to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    for m in (rho, sigma):
        if not np.isfinite(m).all():
            raise InvalidState("finite entries", float(np.sum(~np.isfinite(m))))
    p, u = np.linalg.eigh(rho)
    q, v = np.linalg.eigh(sigma)
    pos_p = p > SUPPORT_TOL
    p = p[pos_p]
    s_rho = float((p * np.log(p)).sum())

    overlap = np.abs(u.conj().T @ v) ** 2
    lnq = np.log(np.maximum(q, LOG_CLAMP))
    kernel = q <= SUPPORT_TOL
    leaky = False
    if kernel.any():
        weight = (v.conj() * (rho @ v)).sum(axis=-2).real  # <v_j|rho|v_j>
        leaky = np.where(kernel, weight, 0.0).sum(axis=-1) > SUPPORT_TOL
        # ln of each sigma's kernel is zeroed, so that a stack keeps one
        # shape.  The kernel all sigmas share is cut out, like rho's null
        # space below: BLAS rounds a product over fewer rows or columns
        # differently, and cutting keeps one sigma's value that of subset
        # indexing bit for bit
        keep = ~kernel.reshape(-1, 4).all(axis=0)
        overlap, lnq = overlap[..., keep], np.where(kernel, 0.0, lnq)[..., keep]
    # contiguous, so that BLAS takes each sigma of a stack as it takes one
    overlap = np.ascontiguousarray(overlap[..., pos_p, :])
    cross = ((p @ overlap)[..., None, :] @ lnq[..., :, None])[..., 0, 0]
    s = np.where(leaky, math.inf, s_rho - cross)
    return float(s) if s.ndim == 0 else s


def _log_divided(a, b):
    """First divided difference of ln, (ln a - ln b) / (a - b), elementwise,
    as log1p(d / min(a, b)) / d with d = |a - b|: log1p of a nonnegative
    argument keeps it accurate to rounding at every spread.  1 / a where a == b."""
    low = np.minimum(a, b)
    d = np.abs(a - b)
    same = d == 0
    d = np.where(same, 1.0, d)
    return np.where(same, 1.0 / low, np.log1p(d / low) / d)


def _log_divided2(w: np.ndarray, l1: np.ndarray) -> np.ndarray:
    """Second divided differences ln[w_i, w_m, w_j] of an ascending spectrum
    w, from its first divided differences l1.

    Each sorted triple c <= b <= a gives (ln[a, b] - ln[b, c]) / (a - c);
    below a relative spread of DIVIDED_SPREAD, the limit -1 / (2 mean^2).
    """
    lo, mid, hi = w[_TRIPLES]
    hi_mid, mid_lo = l1.reshape(16)[_PAIRS]
    mean = (lo + mid + hi) / 3
    spread = hi - lo
    close = spread <= DIVIDED_SPREAD * mean
    return np.where(close, -0.5 / mean ** 2,
                    (hi_mid - mid_lo) / np.where(close, 1.0, spread)).reshape(4, 4, 4)


def _log_gradient(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Hermitian G with d(-tr(rho ln sigma)) = Re tr(dSigma G).

    Daleckii-Krein divided differences of ln on sigma's spectrum.
    """
    q, v = np.linalg.eigh(sigma)
    qc = np.clip(q, 1e-18, None)
    b = v.conj().T @ rho @ v
    return -v @ (_log_divided(qc[:, None], qc[None, :]) * b) @ v.conj().T


def _spectra(x: np.ndarray):
    """Eigenvalues (2, 4) and eigenvectors (2, 4, 4) of sigma(x) and sigma(x)^Gamma."""
    return np.linalg.eigh((_EYE_FLAT + (_X_SIGNS * x) @ _B_FLAT).reshape(2, 4, 4))


def _value(rho: np.ndarray, mu: float, w: np.ndarray, v: np.ndarray) -> float:
    """F = -tr(rho ln sigma) - mu [ln det sigma + ln det sigma^Gamma]; +inf
    outside sigma > 0, sigma^Gamma > 0."""
    if w[:, 0].min() <= 0.0:
        return math.inf
    weights = (v[0].conj() * (rho @ v[0])).sum(axis=0).real
    return -float(weights @ np.log(w[0])) - mu * float(np.log(w).sum())


def _derivatives(rho: np.ndarray, mu: float, w: np.ndarray, v: np.ndarray):
    """Gradient (15,) and exact Hessian (15, 15) of F at the spectra (w, v).

    The entropy term's Hessian is the Daleckii-Krein second divided
    difference of ln; each barrier term's is mu tr(S^-1 B_k S^-1 B_l).
    """
    # (V^H M V)_ij = sum_ab conj(V_ai) M_ab V_bj: one product with conj(V) (x) V
    kron = (v.conj()[:, :, None, :, None] * v[:, None, :, None, :]).reshape(2, 16, 16)
    e = _DIRECTIONS_FLAT @ kron  # directions in the eigenbases, (2, 15, 16)
    r = (rho.reshape(16) @ kron[0]).reshape(4, 4)
    l1 = _log_divided(w[0][:, None], w[0][None, :])
    # entropy term: Re tr(E_k G) with G = -(ln[w_i, w_j] r_ij) in sigma's eigenbasis
    grad = -(e[0] @ (l1 * r).T.reshape(16)).real
    # -2 Re sum_{i,m,j} ln[w_i, w_m, w_j] r_ji E_k,im E_l,mj
    t = _log_divided2(w[0], l1) * r.T[:, None, :]
    p = np.matmul(e[0].reshape(15, 4, 4).transpose(2, 0, 1), t.transpose(1, 0, 2))
    hess = -2.0 * (p.transpose(1, 0, 2).reshape(15, 16) @ e[0].T).real
    # barrier terms of sigma and sigma^Gamma
    inv = 1.0 / w
    # tr(S^-1 E_k) from the diagonals, entries 0, 5, 10, 15 of each flattened E_k
    grad -= mu * (e[:, :, ::5].real * inv[:, None, :]).sum(axis=(0, 2))
    c = (e * np.sqrt(inv[:, :, None] * inv[:, None, :]).reshape(2, 1, 16))
    c = c.transpose(1, 0, 2).reshape(15, 32)
    hess += mu * (c @ c.conj().T).real
    return grad, hess


def _barrier_gradient(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient (15,) of -ln det sigma - ln det sigma^Gamma at the spectra
    (w, v): -tr(S^-1 B_k) summed over S in {sigma, sigma^Gamma}, with
    S^-1 = V diag(1/w) V^H and sigma^Gamma's coordinate signs."""
    inv = (v / w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    # tr(S^-1 B_k) = sum_ab (S^-1)_ba (B_k)_ab
    traces = (inv.transpose(0, 2, 1).reshape(2, 16) @ _B_FLAT.T).real
    return -(_X_SIGNS * traces).sum(axis=0)


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """-(H + s I)^-1 grad by one LU solve, with the shift s = HESSIAN_FLOOR tr H:
    on a flat optimal face (the Bell states) H is singular to rounding, and
    the shift keeps the system well posed and the step a descent direction."""
    shift = HESSIAN_FLOOR * np.trace(hess)
    return np.linalg.solve(hess + shift * np.eye(len(grad)), -grad)


def _ppt_floor(gmat: np.ndarray, w: np.ndarray, v: np.ndarray, mu: float) -> float:
    """A lower bound on min tr(tau G) over PPT states tau, and so over product
    states, from the spectrum (w, v) of sigma^Gamma.

    For Q >= 0 and PPT tau, tr(tau G) = tr(tau (G - Q^Gamma)) + tr(tau^Gamma Q)
    >= lambda_min(G - Q^Gamma).  Q is the barrier's multiplier of
    sigma^Gamma > 0, mu (sigma^Gamma)^-1.
    """
    q = (v * (mu / w)) @ v.conj().T
    return float(np.linalg.eigvalsh(gmat - partial_transpose(q))[0])


def ree_numeric(rho: np.ndarray, cfg: OracleConfig | None = None) -> ReeReport:
    """Minimize S(rho||sigma) over the PPT (= separable) two-qubit states.

    Damped Newton with an Armijo backtrack on the barrier objective `_value`
    from sigma = I/4, one centring per weight of MU_SCHEDULE, each ended where
    half the squared Newton decrement of F / mu, lambda^2 / (2 mu), is at
    most CENTERING_TOL: loose at the early weights, 1e-12 at the last.  Each
    later weight starts with a tangent step along the central path, kept
    where F at the new weight does not rise.  At the end, with G the matrix
    gradient of S(rho||.) at sigma, convexity gives the
    Frank-Wolfe bound REE >= value - (tr sigma G - min_ab <ab|G|ab>); `lower`
    puts `_ppt_floor`, a certified lower bound, in place of the minimum.
    `converged` means the path finished in fewer than `cfg.max_iterations`
    steps (`iterations` counts every accepted step, tangent steps included)
    and the bracket gap = value - lower is at most BRACKET_TOL.
    """
    if cfg is None:
        cfg = OracleConfig()
    validate_density_matrix(rho)
    rho = np.asarray(rho, dtype=complex)

    x = np.zeros(15)
    w, v = _spectra(x)
    steps = 0
    hess = None
    for mu_prev, mu in zip((None,) + MU_SCHEDULE, MU_SCHEDULE):
        f = _value(rho, mu, w, v)
        # tangent predictor: on the central path H dx/dmu = -grad phi for the
        # barrier phi, with H the Hessian that ended the last stage at mu_prev
        if hess is not None and steps < cfg.max_iterations:
            dx = _newton_step((mu - mu_prev) * _barrier_gradient(w, v), hess)
            wt, vt = _spectra(x + dx)
            ft = _value(rho, mu, wt, vt)
            if ft <= f:
                x, w, v, f = x + dx, wt, vt, ft
                steps += 1
        while steps < cfg.max_iterations:
            grad, hess = _derivatives(rho, mu, w, v)
            dx = _newton_step(grad, hess)
            slope = float(grad @ dx)
            if -slope / 2 <= CENTERING_TOL * mu:
                break
            t = 1.0
            for _ in range(MAX_HALVINGS):
                wt, vt = _spectra(x + t * dx)
                ft = _value(rho, mu, wt, vt)
                if ft <= f + ARMIJO_C * t * slope:
                    break
                t /= 2
            else:
                break  # no decrease above rounding: the stage is as centred as it gets
            x, w, v, f = x + t * dx, wt, vt, ft
            steps += 1
    finished = steps < cfg.max_iterations

    # The Armijo test compares values of F, which rounding blurs below about
    # 1e-16, so a stage can end with a gradient near 1e-6 left over.  Full
    # Newton steps compare only decrements: keep each while it shrinks them.
    # The last stage ended at x with the Newton step dx and its slope.
    if finished:
        lam2 = -slope
        for _ in range(POLISH_STEPS):
            wt, vt = _spectra(x + dx)
            if wt[:, 0].min() <= 0.0:
                break
            grad, hess = _derivatives(rho, mu, wt, vt)
            dxt = _newton_step(grad, hess)
            lam2t = -float(grad @ dxt)
            if not lam2t < lam2:
                break
            x, w, v, dx, lam2 = x + dx, wt, vt, dxt, lam2t
            steps += 1

    sigma = np.eye(4) / 4 + np.tensordot(x, _B, axes=1)
    sigma = (sigma + sigma.conj().T) / 2
    value = relative_entropy(rho, sigma)
    gmat = _log_gradient(rho, sigma)
    fw_gap = float(np.real(np.trace(sigma @ gmat))) - _ppt_floor(gmat, w[1], v[1], mu)
    lower = value - fw_gap - BRACKET_ROUNDING
    gap = value - lower
    return ReeReport(value=value, css_numeric=sigma, gap=gap, iterations=steps,
                     converged=finished and gap <= BRACKET_TOL,
                     lower=lower)


def ree_geometric(rho: np.ndarray) -> ReeReport:
    """REE through the geometric closest-separable-state constructions."""
    from .css import FamilyKind, css_auto

    result = css_auto(rho, numeric_fallback=False)
    if result.family.kind is FamilyKind.OTHER:
        raise NotSolvableFamily("no geometric construction for this state")
    return ReeReport(value=result.ree, css_geometric=result.css,
                     converged=True)


def _product_states(n: int) -> np.ndarray:
    """The certificate's n random product states |ab><ab|, shape (n, 4, 4).

    Each qubit's vector has Gaussian real and imaginary parts, all drawn from
    CERTIFICATE_SEED in one call, and is normalized with |v|^2 summed as
    np.linalg.norm sums it (re.re + im.im).
    """
    g = np.random.default_rng(CERTIFICATE_SEED).normal(size=(n, 2, 2, 2))
    re, im = g[:, :, 0], g[:, :, 1]
    norm = np.sqrt((re[..., None, :] @ re[..., :, None]
                    + im[..., None, :] @ im[..., :, None])[..., 0])
    a, b = ((re + 1j * im) / norm).transpose(1, 0, 2)
    c = (a[:, :, None] * b[:, None, :]).reshape(n, 4)  # |a> (x) |b>
    return c[:, :, None] * c.conj()[:, None, :]


def directional_optimality_check(rho: np.ndarray, css: np.ndarray,
                                 n_directions: int = 64) -> float:
    """First-order optimality certificate for a claimed closest separable state.

    Minimum over sampled product-state directions of the one-sided derivative
    d/de S(rho||(1-e) css + e sigma') at e = 0+, by two-step finite
    differences with Richardson extrapolation.  Product states are the
    extreme points of the separable set, so sampling them suffices.
    A true minimizer gives a nonnegative result (up to ~1e-8); a css at
    S(rho||css) = inf gives -inf.  The 2 n_directions mixtures go through
    one stacked `relative_entropy`.
    """
    s0 = relative_entropy(rho, css)
    if math.isinf(s0):
        return -math.inf  # no state at infinite relative entropy is a minimizer
    e = np.array(CERTIFICATE_STEPS)[:, None, None, None]
    s = relative_entropy(rho, (1 - e) * css + e * _product_states(n_directions))
    d1, d2 = (s - s0) / e[:, :, 0, 0]
    e1, e2 = CERTIFICATE_STEPS
    return float(((e1 * d2 - e2 * d1) / (e1 - e2)).min(initial=math.inf))
