"""Quantum relative entropy and the numerical entanglement minimizer.

`relative_entropy` is the shared metric.  `ree_numeric` minimizes it over the
separable states, which for two qubits are the PPT states (Horodecki,
Horodecki & Horodecki, PLA 223, 1 (1996)): damped Newton on a log-barrier
for sigma >= 0 and sigma^Gamma >= 0 in the 15 Pauli coordinates, started
at rho mixed toward I/4, which follows the central path loosely (PATH_TOL)
and centres only its last weight tightly (CENTERING_TOL), then a
Frank-Wolfe gap (Jaggi, ICML 2013), bounded through the barrier's dual,
that brackets the minimum.  It is the independent oracle against which the
geometric constructions are verified; `_certificate` forms that bound for it
and, at the reverse map's multiplier too, for `directional_optimality_check`.

`_fit` fits that multiplier Z of sigma^Gamma >= 0 to the stationarity
condition rho = sigma - D_sigma(Z^Gamma) (Friedland & Gour, J. Math. Phys.
52, 052201 (2011)) on the rows of `_generators`, the one builder of G(sigma),
at the kernel of sigma^Gamma within EDGE_TOL (`_kernel`); `revmap` reads all
three for the reverse map, `css` and `_certificate` read the fit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import (_B_FLAT, _EYE_FLAT, _PAULI_ROWS, _PT_PAIR, _finite, _from_coordinates,
                     partial_transpose, validate_density_matrix)

SUPPORT_TOL = 1e-12
EDGE_TOL = 1e-8
# barrier weights of the central path: 0.01, 1e-3, ..., 1e-9, from a start
# where sigma and sigma^Gamma have eigenvalues >= the first; the excess of the
# path's end over the optimum is at most 8 * 1e-9 (barrier parameter 8)
MU_SCHEDULE = tuple(10.0 ** -k for k in range(2, 10))
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

# _EYE_FLAT + x @ _DIRECTIONS_FLAT stacks sigma and sigma^Gamma at the Pauli coordinates x
_DIRECTIONS_FLAT = np.ascontiguousarray(_B_FLAT[:, _PT_PAIR].reshape(15, 2, 16).swapaxes(0, 1))
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
    deterministic and starts at rho mixed toward I/4.  They stay because
    `perfbench/` passes them.
    """

    max_iterations: int = 600
    restarts: int = 8
    seed: int = 0


@dataclass
class ReeReport:
    """From `ree_numeric`: `value` = S(rho || css_numeric), and the REE lies
    in [lower, value] with lower = value - gap."""

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
    is 0.  Raises InvalidState when rho or sigma is not a finite 4x4 matrix.
    """
    pair = np.array([_finite(rho), _finite(sigma)], dtype=complex)
    (p, q), (_, v) = np.linalg.eigh(pair)  # one eigh of the stack
    return _relative_entropy(pair[0], p, q, v)


def _relative_entropy(rho, p, q, v) -> float:
    """`relative_entropy` from rho's eigenvalues p and sigma's spectrum q, v, with
    -tr(rho ln sigma) = -sum_j <v_j|rho|v_j> ln q_j on sigma's support, as in `_value`."""
    p = p[p > SUPPORT_TOL]
    keep = q > SUPPORT_TOL  # sigma's support; its kernel's eigenvalues may be <= 0
    weight = (v.conj() * (rho @ v)).sum(axis=0).real  # <v_j|rho|v_j>
    if weight[~keep].sum() > SUPPORT_TOL:
        return math.inf
    return float((p * np.log(p)).sum()) - float(weight[keep] @ np.log(q[keep]))


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


def _generators(lam: np.ndarray, v: np.ndarray, kmat: np.ndarray):
    """(l1, rows) from sigma = V diag(lam) V^dagger and columns k_1 .. k_n of
    K (4, n): l1 = `_support_log_divided`(lam), and one row
    D_sigma((k_a k_b^dagger)^Gamma) in sigma's eigenbasis, (n^2, 4, 4), for
    each pair.  D_sigma, the inverse derivative of ln on sigma's support,
    multiplies by 1 / l1 and is zero on sigma's kernel."""
    k, l1 = kmat.T[:, None, :, None], _support_log_divided(lam)
    coef = 1.0 / np.where(l1 == 0, np.inf, l1)
    # k_a k_b^dagger by a product over a length-1 axis: one multiply, as einsum's
    units = partial_transpose((k @ k.conj().transpose(1, 0, 3, 2)).reshape(-1, 4, 4))
    return l1, coef * (v.conj().T @ units @ v)


def _frame(v: np.ndarray) -> np.ndarray:
    """conj(V) (x) V (..., 16, 16) of bases V (..., 4, 4): M.ravel() @ it is V^dagger M V, flat."""
    return (v.conj()[..., None, :, None] * v[..., None, :, None, :]).reshape(*v.shape[:-2], 16, 16)


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
    kron = _frame(v)
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


def _dual_floor(gmat: np.ndarray, q: np.ndarray) -> float:
    """lambda_min(G - Q^Gamma), a lower bound on min tr(tau G) over PPT states
    tau, and so over product states, for any multiplier Q >= 0: tr(tau G) =
    tr(tau (G - Q^Gamma)) + tr(tau^Gamma Q) >= lambda_min(G - Q^Gamma)."""
    return float(np.linalg.eigvalsh(gmat - partial_transpose(q))[0])


def ree_numeric(rho: np.ndarray, cfg: OracleConfig | None = None) -> ReeReport:
    """Minimize S(rho||sigma) over the PPT (= separable) two-qubit states.

    Damped Newton with an Armijo backtrack on the barrier objective `_value`
    from sigma = (1 - m) rho + m I/4, one centring per weight of
    MU_SCHEDULE, each ended where half the squared Newton decrement of
    F / mu, lambda^2 / (2 mu), is at most PATH_TOL at every weight but the
    last, whose centre only seeds the next, and at most CENTERING_TOL at
    the last (lambda^2 / 2 <= 1e-12 at mu = 1e-9), the only centre
    reported.  Each later weight starts with a tangent step along the
    central path, kept where F at the new weight does not rise.  A trial
    point that leaves the cone or is not finite is rejected; a Newton step
    or slope that is not finite ends its stage at once, with no trial
    point.  At the end, with G the matrix gradient of S(rho||.) at sigma,
    convexity gives the Frank-Wolfe bound REE >= value - (tr sigma G -
    min_ab <ab|G|ab>); gap = -`_certificate` with no fit puts `_dual_floor`
    at the barrier's multiplier mu (sigma^Gamma)^-1 in place of the minimum
    (the fitted one is sharper, but can pass the REE by rounding), and
    lower = value - gap, 2e-9 or more below the REE as measured.  `converged`
    means the path finished in fewer than `cfg.max_iterations` steps and gap <= BRACKET_TOL;
    `iterations`, every accepted step (tangent and polish steps included),
    never exceeds `cfg.max_iterations`.  The mixing weight m is the least
    that gives sigma and sigma^Gamma eigenvalues >= mu0 = MU_SCHEDULE[0]:
    (mu0 - lam) / (1/4 - lam) with lam = min(lambda_min(rho),
    lambda_min(rho^Gamma)) where lam < mu0, else 0, a start at rho itself.
    """
    if cfg is None:
        cfg = OracleConfig()
    p, p_pt = validate_density_matrix(rho)[0]  # rho's eigenvalues p, read at the end
    rho = np.asarray(rho, dtype=complex)

    lam, mu0 = min(float(p[0]), float(p_pt[0])), MU_SCHEDULE[0]
    m = (mu0 - lam) / (0.25 - lam) if lam < mu0 else 0.0
    # rho's coordinates x_k = tr(rho sigma_a (x) sigma_b), scaled toward I/4 at x = 0
    x = (1.0 - m) * (_PAULI_ROWS @ rho.reshape(16)).real
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

    sigma = _from_coordinates(x)  # (w, v)[0] is its spectrum
    value = _relative_entropy(rho, p, w[0], v[0])
    gap = -_certificate(rho, sigma, w, v, None)
    return ReeReport(value=value, css_numeric=sigma, gap=gap, iterations=steps,
                     converged=finished and gap <= BRACKET_TOL, lower=value - gap)


def directional_optimality_check(rho: np.ndarray, css: np.ndarray,
                                 n_directions: int = 64) -> float:
    """Exact optimality certificate for a claimed closest separable state:
    c = max_Q `_dual_floor`(G, Q) - tr(css G), G the `_log_gradient` at css.

    By convexity REE >= S(rho||css) + c for any Q >= 0, and c <= 0: a css eps
    above the REE scores c <= -eps.  Q is the reverse map's fitted multiplier
    K (M + s I) K^dagger (`_fit`), s = max(0, -lambda_min(M)) since
    D_sigma leaves the identity on K free where css is rank-deficient, which
    gives c = 0 to rounding at a CSS; or, where lambda_min(css^Gamma) >
    SUPPORT_TOL, the barrier's mu (css^Gamma)^-1, the oracle's bracket, so
    c >= -gap at `ree_numeric`'s css.  -inf where `relative_entropy` = inf.
    `n_directions` is ignored; it stays because `perfbench/` passes it.
    """
    rho, css = _finite(rho), _finite(css)
    stack = np.empty((3, 4, 4), dtype=complex)  # (rho, css, css^Gamma), for one eigh
    stack[0], stack[1:] = rho, css.reshape(16)[_PT_PAIR].reshape(2, 4, 4)
    w, v = np.linalg.eigh(stack)
    if math.isinf(_relative_entropy(rho, w[0], w[1], v[1])):
        return -math.inf  # no state at infinite relative entropy is a minimizer
    return _certificate(rho, css, w[1:], v[1:], _fit(css, rho, w[1:], v[1:]))


def _certificate(rho, css, w, v, fit) -> float:
    """`directional_optimality_check` at a css of finite S(rho||css), from
    the spectra w, v of (css, css^Gamma) and their `_fit` to rho; a fit of
    None reads the barrier's multiplier alone, -inf where it has none."""
    gmat, floor = _log_gradient(rho, w[0], v[0]), -math.inf
    if fit is not None:
        k, m, _ = fit
        shift = -np.linalg.eigvalsh(m).min(initial=0.0) * np.eye(len(m))
        floor = _dual_floor(gmat, k @ (m + shift) @ k.conj().T)
    if w[1, 0] > SUPPORT_TOL:  # mu (sigma^Gamma)^-1 at mu = MU_SCHEDULE[-1]
        floor = max(floor, _dual_floor(gmat, (v[1] * (MU_SCHEDULE[-1] / w[1])) @ v[1].conj().T))
    return floor - float(np.trace(css @ gmat).real)


def _kernel(w, vecs) -> np.ndarray:
    """K (4, n) from the `qstate._pt_spectra` w, vecs of sigma: the
    eigenvectors of sigma^Gamma with |eigenvalue| <= EDGE_TOL, as columns."""
    return vecs[1][:, np.abs(w[1]) <= EDGE_TOL]


def _fit(sigma, rho, w, vecs):
    """(K, M, rows) of `revmap.recover`, from the spectra w, vecs of (sigma,
    sigma^Gamma): the kernel vectors K (4, n), the Hermitian n x n M fitted to
    rho, and `_generators`' rows flat, (n^2, 16); all empty where n = 0."""
    k, v = _kernel(w, vecs), vecs[0]
    cols = _generators(w[0], v, k)[1].reshape(-1, 16)
    target = (v.conj().T @ (sigma - rho) @ v).ravel()
    m = np.linalg.lstsq(cols.T, target, rcond=None)[0].reshape(k.shape[1], k.shape[1])
    return k, (m + m.conj().T) / 2, cols
