"""Quantum relative entropy and the numerical entanglement minimizer.

`relative_entropy` is the shared metric.  `ree_numeric` minimizes it over the
separable states, which for two qubits are the PPT states (Horodecki,
Horodecki & Horodecki, PLA 223, 1 (1996)): damped Newton on a log-barrier
for sigma >= 0 and sigma^Gamma >= 0 in the 15 Pauli coordinates, which
follows the central path loosely (PATH_TOL) and centres only its last
weight tightly (CENTERING_TOL), then a Frank-Wolfe gap (Jaggi, ICML 2013),
bounded through the barrier's dual, that brackets the minimum.  It is the
independent oracle against which the geometric constructions are verified.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import PAULI_BASIS, _checked_spectra, _finite, partial_transpose

SUPPORT_TOL = 1e-12
# barrier weights of the central path: 1, 0.1, ..., 1e-9; the excess of the
# path's end over the optimum is at most 8 * 1e-9 (barrier parameter 8)
MU_SCHEDULE = tuple(10.0 ** -k for k in range(10))
# a stage ends where half the squared Newton decrement of F / mu, the
# self-concordant barrier function, is at most its bound: CENTERING_TOL at the
# last weight, 1e-12 at mu = 1e-9, the only centre reported; PATH_TOL at every
# earlier weight, whose centre only seeds the next (Boyd & Vandenberghe,
# Convex Optimization, 11.3)
CENTERING_TOL = 1e-3
PATH_TOL = 0.1
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

# sigma = I/4 + sum_k x_k B_k, B_k = (sigma_a (x) sigma_b) / 4 flattened, k = 4a + b - 1;
# x @ _DIRECTIONS_FLAT stacks sigma and sigma^Gamma, whose B_k flip sign with sigma_y on B
_B_FLAT = PAULI_BASIS[1:] / 4
_PT_SIGN = np.array([-1.0 if k % 4 == 2 else 1.0 for k in range(1, 16)])
_DIRECTIONS_FLAT = np.stack([_B_FLAT, _PT_SIGN[:, None] * _B_FLAT])
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
    steps, tangent predictor and polish steps included.

    `seed` and `restarts` are accepted and ignored; the barrier path is
    deterministic and starts at I/4.  They stay because `perfbench/` passes
    them.
    """

    max_iterations: int = 600
    restarts: int = 8
    seed: int = 0


@dataclass
class ReeReport:
    """From `ree_numeric`: `value` = S(rho || css_numeric), and the REE lies
    in [lower, value] with gap = value - lower."""

    value: float
    css_numeric: np.ndarray
    gap: float
    iterations: int
    converged: bool
    lower: float


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho||sigma) = tr(rho ln rho - rho ln sigma), in nats.

    math.inf when rho's support is not contained in sigma's (weight beyond
    SUPPORT_TOL on its kernel, the eigenvalues at most SUPPORT_TOL).  0 ln 0
    is 0.  Raises InvalidState when rho or sigma has a NaN or infinite entry.
    """
    rho, (w, v) = _joint_spectra(rho, sigma)
    return _relative_entropy(rho, w[0], v[0], w[1], v[1])


def _joint_spectra(rho, sigma):
    """rho as a complex array and one eigh of the stack (rho, sigma), both finite."""
    pair = np.array([_finite(rho), _finite(sigma)], dtype=complex)
    return pair[0], np.linalg.eigh(pair)


def _relative_entropy(rho, p, u, q, v) -> float:
    """`relative_entropy` from the spectra p, u of rho and q, v of sigma."""
    pos_p = p > SUPPORT_TOL
    p = p[pos_p]
    s_rho = float((p * np.log(p)).sum())
    keep = q > SUPPORT_TOL
    weight = (v.conj() * (rho @ v)).sum(axis=0).real  # <v_j|rho|v_j>
    if weight[~keep].sum() > SUPPORT_TOL:
        return math.inf
    # cut rho's null space and sigma's kernel, whose eigenvalues may be <= 0
    overlap = (np.abs(u.conj().T @ v) ** 2)[:, keep][pos_p]  # C order, as np.ix_ gives
    return s_rho - float(p @ overlap @ np.log(q[keep]))


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


def _support_log_divided(q: np.ndarray) -> np.ndarray:
    """First divided differences ln[q_i, q_j] of sigma's spectrum q, zeroed on
    the rows and columns of sigma's kernel, the eigenvalues at most SUPPORT_TOL."""
    support = q > SUPPORT_TOL
    qs = np.where(support, q, 1.0)
    return _log_divided(qs[:, None], qs[None, :]) * (support[:, None] & support[None, :])


def _log_gradient(rho: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian G with d(-tr(rho ln sigma)) = Re tr(dSigma G), from sigma's
    spectrum q, v.

    Daleckii-Krein divided differences of ln on sigma's support
    (`_support_log_divided`).  For rho in sigma's support the kernel adds
    O(e^2 ln e) to S(rho||(1 - e) sigma + e pi), nothing to the derivative,
    while its 1 / q entries would swamp G.
    """
    b = v.conj().T @ rho @ v
    return -v @ (_support_log_divided(q) * b) @ v.conj().T


def _spectra(x: np.ndarray):
    """Eigenvalues (2, 4) and eigenvectors (2, 4, 4) of sigma(x) and sigma(x)^Gamma."""
    return np.linalg.eigh((_EYE_FLAT + x @ _DIRECTIONS_FLAT).reshape(2, 4, 4))


def _value(rho: np.ndarray, mu: float, w: np.ndarray, v: np.ndarray) -> float:
    """F = -tr(rho ln sigma) - mu [ln det sigma + ln det sigma^Gamma]; +inf
    outside sigma > 0, sigma^Gamma > 0."""
    if w[0, 0] <= 0.0 or w[1, 0] <= 0.0:
        return math.inf
    weights = (v[0].conj() * (rho @ v[0])).sum(axis=0).real
    log_w = np.log(w)
    return -float(weights @ log_w[0]) - mu * float(log_w.sum())


def _trial(rho: np.ndarray, mu: float, x: np.ndarray):
    """Spectra and F at a trial point x; F = +inf, with no spectra, where a
    coordinate of x is not finite, so that a non-finite step is rejected as
    one that leaves sigma > 0 or sigma^Gamma > 0 is."""
    if not np.isfinite(x).all():
        return None, None, math.inf
    w, v = _spectra(x)
    return w, v, _value(rho, mu, w, v)


def _derivatives(rho: np.ndarray, mu: float, w: np.ndarray, v: np.ndarray):
    """Gradient (15,) and exact Hessian (15, 15) of F at the spectra (w, v), and
    the gradient of the barrier -ln det sigma - ln det sigma^Gamma, which F weights by mu.

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
    # -tr(S^-1 E_k) from the diagonals, entries 0, 5, 10, 15 of each flattened E_k
    barrier = -(e[:, :, ::5].real * inv[:, None, :]).sum(axis=(0, 2))
    grad += mu * barrier
    c = (e * np.sqrt(inv[:, :, None] * inv[:, None, :]).reshape(2, 1, 16))
    c = c.transpose(1, 0, 2).reshape(15, 32)
    hess += mu * (c @ c.conj().T).real
    return grad, hess, barrier


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """-(H + s I)^-1 grad by one LU solve, with the shift s = HESSIAN_FLOOR tr H:
    on a flat optimal face (the Bell states) H is singular to rounding, and
    the shift keeps the system well posed and the step a descent direction."""
    shifted = hess.copy()
    shifted.flat[::len(grad) + 1] += HESSIAN_FLOOR * np.trace(hess)
    return np.linalg.solve(shifted, -grad)


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
    most PATH_TOL at every weight but the last, whose centre only seeds the
    next, and at most CENTERING_TOL at the last (lambda^2 / 2 <= 1e-12 at
    mu = 1e-9), the only centre reported.  Each later weight starts with a
    tangent step along the central path, kept where F at the new weight does
    not rise.  A trial point that leaves the cone or is not finite is
    rejected; a Newton step or slope that is not finite ends its stage at
    once, with no trial point.  At the end, with G the matrix gradient of
    S(rho||.) at sigma, convexity gives the Frank-Wolfe bound
    REE >= value - (tr sigma G - min_ab <ab|G|ab>); `lower`
    puts `_ppt_floor`, a certified lower bound, in place of the minimum.
    `converged` means the path finished in fewer than `cfg.max_iterations`
    steps and the bracket gap = value - lower is at most BRACKET_TOL;
    `iterations`, every accepted step (tangent and polish steps included),
    never exceeds `cfg.max_iterations`.
    """
    if cfg is None:
        cfg = OracleConfig()
    (p, _), (u, _) = _checked_spectra(rho)  # rho's spectrum p, u, read at the end
    rho = np.asarray(rho, dtype=complex)

    x = np.zeros(15)
    w, v = _spectra(x)
    steps = 0
    hess = None
    for mu_prev, mu in zip((None,) + MU_SCHEDULE, MU_SCHEDULE):
        bound = (CENTERING_TOL if mu == MU_SCHEDULE[-1] else PATH_TOL) * mu
        f = _value(rho, mu, w, v)
        # tangent predictor: on the central path H dx/dmu = -grad phi for the
        # barrier phi; H and grad phi come from the last stage's final call, at x
        if hess is not None and steps < cfg.max_iterations:
            xt = x + _newton_step((mu - mu_prev) * barrier, hess)
            wt, vt, ft = _trial(rho, mu, xt)
            if ft <= f:
                x, w, v, f = xt, wt, vt, ft
                steps += 1
        while steps < cfg.max_iterations:
            grad, hess, barrier = _derivatives(rho, mu, w, v)
            dx = _newton_step(grad, hess)
            slope = float(grad @ dx) if np.isfinite(dx).all() else math.nan
            if not math.isfinite(slope) or -slope / 2 <= bound:
                break
            t = 1.0
            for _ in range(MAX_HALVINGS):
                xt = x + t * dx
                wt, vt, ft = _trial(rho, mu, xt)
                if ft <= f + ARMIJO_C * t * slope:
                    break
                t /= 2
            else:
                break  # no decrease above rounding: the stage is as centred as it gets
            x, w, v, f = xt, wt, vt, ft
            steps += 1
    finished = steps < cfg.max_iterations

    # The Armijo test compares values of F, which rounding blurs below about
    # 1e-16, so a stage can end with a gradient near 1e-6 left over.  Full
    # Newton steps compare only decrements: keep each while it shrinks them.
    # The last stage ended at x with the Newton step dx and its slope.
    if finished and math.isfinite(slope):
        lam2 = -slope
        for _ in range(min(POLISH_STEPS, cfg.max_iterations - steps)):
            xt = x + dx
            wt, vt, ft = _trial(rho, mu, xt)
            if ft == math.inf:
                break
            grad, hess, _ = _derivatives(rho, mu, wt, vt)
            dxt = _newton_step(grad, hess)
            lam2t = -float(grad @ dxt) if np.isfinite(dxt).all() else math.nan
            if not lam2t < lam2:
                break
            x, w, v, dx, lam2 = xt, wt, vt, dxt, lam2t
            steps += 1

    sigma = (_EYE_FLAT + x @ _B_FLAT).reshape(4, 4)  # exactly Hermitian; (w, v)[0] its spectrum
    value = _relative_entropy(rho, p, u, w[0], v[0])
    gmat = _log_gradient(rho, w[0], v[0])
    fw_gap = float(np.real(np.trace(sigma @ gmat))) - _ppt_floor(gmat, w[1], v[1], mu)
    lower = value - fw_gap - BRACKET_ROUNDING
    gap = value - lower
    return ReeReport(value=value, css_numeric=sigma, gap=gap, iterations=steps,
                     converged=finished and gap <= BRACKET_TOL,
                     lower=lower)


def _product_states(n: int) -> np.ndarray:
    """The certificate's n random product vectors |a>|b>, shape (n, 4).

    Each qubit's vector has Gaussian real and imaginary parts, all drawn from
    CERTIFICATE_SEED in one call, and is normalized with |v|^2 summed as
    np.linalg.norm sums it (re.re + im.im).
    """
    g = np.random.default_rng(CERTIFICATE_SEED).normal(size=(n, 2, 2, 2))
    re, im = g[:, :, 0], g[:, :, 1]
    norm = np.sqrt((re[..., None, :] @ re[..., :, None]
                    + im[..., None, :] @ im[..., :, None])[..., 0])
    a, b = ((re + 1j * im) / norm).transpose(1, 0, 2)
    return (a[:, :, None] * b[:, None, :]).reshape(n, 4)


def directional_optimality_check(rho: np.ndarray, css: np.ndarray,
                                 n_directions: int = 64) -> float:
    """First-order optimality certificate for a claimed closest separable state.

    Minimum over sampled product states |ab> of the one-sided derivative
    d/de S(rho||(1-e) css + e |ab><ab|) at e = 0+, which is
    <ab|G|ab> - tr(css G) for the matrix gradient G of `_log_gradient`.
    Product states are the extreme points of the separable set, but
    n_directions samples bound their minimum from above only: a true
    minimizer gives a nonnegative result (up to rounding), and so can a css
    2.5e-3 nats above the REE.  `ree_numeric`'s `lower` is the certified end.
    A css at S(rho||css) = inf gives -inf; n_directions < 1 raises ValueError.
    """
    if n_directions < 1:
        raise ValueError(f"n_directions must be at least 1, not {n_directions}")
    rho, (w, v) = _joint_spectra(rho, css)
    if math.isinf(_relative_entropy(rho, w[0], v[0], w[1], v[1])):
        return -math.inf  # no state at infinite relative entropy is a minimizer
    gmat = _log_gradient(rho, w[1], v[1])
    c = _product_states(n_directions)
    along = ((c.conj() @ gmat) * c).sum(axis=1).real  # <ab|G|ab>
    return float(along.min() - np.trace(css @ gmat).real)
