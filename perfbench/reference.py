"""Independent references that the benchmark checks reegeom's outputs against.

Nothing here imports reegeom.  Each reference is written from its defining
formula with numpy alone, so a defect in a reegeom route cannot also pass
the check of its own output.  Every `check_*` function returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
I2 = np.eye(2, dtype=complex)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)

# Gates shared with reegeom's own acceptance criteria.
BLOCH_GAP = 1e-10
EDGE_GAP = 1e-8
RECOVERY_GAP = 1e-9
ORACLE_GAP = 2e-4
CERTIFICATE_FLOOR = -1e-8
PURE_TOL = 1e-6
# Tolerances of the benchmark's own references.
PSD_TOL = 1e-10
REE_TOL = 1e-9
MATCH_TOL = 1e-12
NULL_EIG = 1e-15
LEAK_TOL = 1e-9
# A direction outside sigma's numerical support changes S(rho || sigma) by
# its weight times -ln of an eigenvalue that rounding put near 0; the
# oracle clips eigenvalues at 1e-18, where -ln is about 41.
NULL_LOG = 50.0
FACE_TOL = 1e-8
BRANCH_TOL = 1e-10


# --- states ------------------------------------------------------------------

def haar_su2(rng) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def local_rotation(rho, u_a, u_b) -> np.ndarray:
    u = np.kron(u_a, u_b)
    return u @ rho @ u.conj().T


def state_from_pauli(r, s, t) -> np.ndarray:
    """(I + r.sigma x I + I x s.sigma + sum_i t_i sigma_i x sigma_i) / 4."""
    m = np.eye(4, dtype=complex)
    for i, p in enumerate(PAULI):
        m = m + r[i] * np.kron(p, I2) + s[i] * np.kron(I2, p) + t[i] * np.kron(p, p)
    return m / 4


def z_states(r, s, q) -> np.ndarray:
    """Batch of states with Bloch vectors (0, 0, r), (0, 0, s) and diagonal
    correlations q; r, s are scalars or arrays, q has shape (n, 3)."""
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.broadcast_to(np.asarray(r, dtype=float), (len(q),))
    s = np.broadcast_to(np.asarray(s, dtype=float), (len(q),))
    zi, iz = np.kron(PAULI[2], I2), np.kron(I2, PAULI[2])
    corr = np.stack([np.kron(p, p) for p in PAULI])
    m = (np.eye(4)[None] + r[:, None, None] * zi + s[:, None, None] * iz
         + np.einsum("ni,ijk->njk", q, corr))
    return m / 4


def bell_diagonal(t) -> np.ndarray:
    return state_from_pauli(np.zeros(3), np.zeros(3), t)


def vp_state(lam) -> np.ndarray:
    """l1 |Phi+><Phi+| + l2 |00><00| + l3 |11><11|."""
    l1, l2, l3 = lam
    return l1 * np.outer(PHI_PLUS, PHI_PLUS) + np.diag([l2, 0, 0, l3]).astype(complex)


def horodecki_state(lam) -> np.ndarray:
    """l1 |Phi+><Phi+| + l2 |01><01| + l3 |10><10|."""
    l1, l2, l3 = lam
    return l1 * np.outer(PHI_PLUS, PHI_PLUS) + np.diag([0, l2, l3, 0]).astype(complex)


# --- spectra and entropies ---------------------------------------------------

def partial_transpose(m) -> np.ndarray:
    """Transpose on the second qubit; works on one matrix or a batch."""
    m = np.asarray(m)
    lead = m.shape[:-2]
    return (m.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1)
            .reshape(lead + (4, 4)))


def min_eig(m):
    return np.linalg.eigvalsh(m)[..., 0]


def min_pt_eig(m):
    return min_eig(partial_transpose(m))


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)))


def relative_entropy(rho, sigma) -> tuple[float, float]:
    """S(rho || sigma) in nats over sigma's numerical support, and the
    weight of rho outside that support.

    Eigenvalues of sigma at or below NULL_EIG are zero to rounding: their
    sign and size are noise, so their directions are left out of the sum
    and reported as the outside weight instead.
    """
    p = np.linalg.eigvalsh(rho)
    q, v = np.linalg.eigh(sigma)
    inside = q > NULL_EIG
    # weight of rho on each eigenvector of sigma
    weight = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho, v))
    value = -entropy(p) - float(weight[inside] @ np.log(q[inside]))
    return value, float(np.sum(weight[~inside]))


def bell_diagonal_ree(t) -> float:
    """ln 2 + l ln l + (1 - l) ln(1 - l) with l the largest Bell weight."""
    lam = float(np.max(np.linalg.eigvalsh(bell_diagonal(t))))
    if lam <= 0.5:
        return 0.0
    return math.log(2) + lam * math.log(lam) + (1 - lam) * math.log(1 - lam)


def vp_css(lam) -> np.ndarray:
    """Vedral-Plenio closest separable state: the dephased Phi+ block."""
    l1, l2, l3 = lam
    return np.diag([l1 / 2 + l2, 0, 0, l1 / 2 + l3]).astype(complex)


def horodecki_css(lam) -> np.ndarray:
    """Closest separable state of the generalized Horodecki state."""
    l1, l2, l3 = lam
    a, b = l1 + 2 * l2, l1 + 2 * l3
    m = np.diag([a * b, a * a, b * b, a * b]).astype(complex)
    m[0, 3] = m[3, 0] = a * b
    return m / 4


def template_ree(kind: str, params) -> float:
    """Closed-form REE of an unrotated family member."""
    if kind == "BellDiagonal":
        return bell_diagonal_ree(params)
    if kind == "GeneralizedVP":
        return 0.0 if params[0] <= 0 else relative_entropy(vp_state(params),
                                                           vp_css(params))[0]
    l1, l2, l3 = params
    if l1 ** 2 <= 4 * l2 * l3:
        return 0.0
    return relative_entropy(horodecki_state(params), horodecki_css(params))[0]


# --- checks ------------------------------------------------------------------

def _check_density(name, m) -> list[str]:
    fails = []
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > 1e-12:
        fails.append(f"{name} not Hermitian ({herm:.1e})")
    tr = abs(np.trace(m) - 1)
    if tr > 1e-10:
        fails.append(f"{name} trace off by {tr:.1e}")
    lo = float(min_eig((m + m.conj().T) / 2))
    if lo < -PSD_TOL:
        fails.append(f"{name} not PSD (min eigenvalue {lo:.1e})")
    return fails


def _check_css(rho, css, ree) -> list[str]:
    """The CSS is a PPT state and the reported REE is S(rho || CSS)."""
    fails = _check_density("css", css)
    lo = float(min_pt_eig(css))
    if lo < -PSD_TOL:
        fails.append(f"css not PPT (min PT eigenvalue {lo:.1e})")
    own, outside = relative_entropy(rho, css)
    if outside > LEAK_TOL:
        fails.append(f"rho has weight {outside:.1e} outside the css support")
    elif not abs(own - ree) <= REE_TOL + NULL_LOG * outside:
        fails.append(f"reported REE {ree:.12g} != S(rho||css) {own:.12g}")
    return fails


def check_family_solve(expected, res) -> list[str]:
    """A closed-form `css_auto` result on a rotated family member.

    `expected` holds kind, params, rho (rotated) and ree (template REE in
    the unrotated frame).
    """
    fails = []
    if res.family.kind.value != expected["kind"]:
        fails.append(f"classified {res.family.kind.value}, built {expected['kind']}")
    if not res.geometric:
        fails.append("left the closed-form route")
    if not abs(res.ree - expected["ree"]) <= REE_TOL:
        fails.append(f"REE {res.ree:.12g} != template {expected['ree']:.12g}")
    separable = expected["ree"] == 0.0
    if res.separable != separable:
        fails.append(f"separable flag {res.separable}, expected {separable}")
    gaps = res.residuals
    if not gaps["bloch_gap"] <= BLOCH_GAP:
        fails.append(f"bloch_gap {gaps['bloch_gap']:.1e}")
    if not separable:
        if not gaps["edge_gap"] <= EDGE_GAP:
            fails.append(f"edge_gap {gaps['edge_gap']:.1e}")
        if expected["kind"] != "BellDiagonal" and not gaps["recovery_gap"] <= RECOVERY_GAP:
            fails.append(f"recovery_gap {gaps['recovery_gap']:.1e}")
        edge = abs(float(min_pt_eig(res.css)))
        if edge > EDGE_GAP:
            fails.append(f"css off the separable boundary ({edge:.1e})")
    return fails + _check_css(expected["rho"], res.css, res.ree)


def check_certified_family(rho, res, oracle_value, certificate) -> list[str]:
    """Closed-form CSS cross-validated by the numeric oracle and certificate."""
    fails = []
    gap = abs(res.ree - oracle_value)
    if not gap <= ORACLE_GAP:
        fails.append(f"|REE_geo - REE_num| = {gap:.2e} > {ORACLE_GAP:.0e}")
    if not certificate >= CERTIFICATE_FLOOR:
        fails.append(f"certificate {certificate:.2e} < {CERTIFICATE_FLOOR:.0e}")
    return fails + _check_css(rho, res.css, res.ree)


def check_numeric_solve(rho, res, pure: bool) -> list[str]:
    """A numeric-fallback `css_auto` result on a non-family entangled state.

    No first-order certificate here: at a numerical minimum a value error
    of 1e-8 already allows directional derivatives near -1e-4.  The REE is
    checked by value instead: positive, at most the mutual information
    S(rho || rho_A x rho_B), and S(rho_A) for a pure state.
    """
    fails = []
    if res.geometric:
        fails.append("non-family state took the closed-form route")
    marginals = rho.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ikjk->ij", marginals)
    rho_b = np.einsum("kikj->ij", marginals)
    mutual = relative_entropy(rho, np.kron(rho_a, rho_b))[0]
    if not 0 < res.ree <= mutual + REE_TOL:
        fails.append(f"REE {res.ree:.6g} outside (0, mutual information {mutual:.6g}]")
    if pure:
        s_a = entropy(np.linalg.eigvalsh(rho_a))
        if not abs(res.ree - s_a) <= PURE_TOL:
            fails.append(f"pure-state REE {res.ree:.9g} != S(rho_A) {s_a:.9g}")
    return fails + _check_css(rho, res.css, res.ree)


def check_zero_bloch_mesh(body: str, points) -> list[str]:
    """At r = s = 0 the bodies are the tetrahedron (T) and octahedron (L)."""
    if len(points) == 0:
        return [f"empty {body} mesh"]
    if body == "T":
        normals = np.array([[1, -1, -1], [1, 1, 1], [-1, -1, 1], [-1, 1, -1]], float)
        dev = np.min(np.abs(points @ normals.T - 1.0), axis=1)
    else:
        dev = np.abs(np.sum(np.abs(points), axis=1) - 1.0)
    worst = float(np.max(dev))
    return [] if worst <= FACE_TOL else [f"{body} mesh off its faces by {worst:.1e}"]


def check_boundary_mesh(body: str, r, s, points) -> list[str]:
    """Every point is a physical state on the boundary of its body."""
    if len(points) == 0:
        return [f"empty {body} mesh at r={r:.3g}, s={s:.3g}"]
    rho = z_states(r, s, points)
    lo = min_eig(rho)
    fails = []
    if np.min(lo) < -PSD_TOL:
        fails.append(f"{body} mesh point not PSD ({np.min(lo):.1e})")
    edge = lo if body == "T" else min_pt_eig(rho)
    worst = float(np.max(np.abs(edge)))
    if worst > BRANCH_TOL:
        fails.append(f"{body} mesh point off the boundary by {worst:.1e}")
    return fails


def check_crossings(r, s, coords) -> list[str]:
    """Each crossing lies on the separable boundary: min PT eigenvalue 0."""
    if len(coords) == 0:
        return ["ray has no crossing"]
    worst = float(np.max(np.abs(min_pt_eig(z_states(r, s, coords)))))
    return [] if worst <= BRANCH_TOL else [f"crossing off the boundary by {worst:.1e}"]


def check_sweep(rows, crossings) -> list[str]:
    """Family polylines are straight, start at tau, stay physical, and each
    reported line crossing lies on both lines."""
    fails = []
    lines = {}
    for row in rows:
        lines.setdefault(row["family_id"], []).append(row)
    tau, slope = {}, {}
    for fid, fam in lines.items():
        tau[fid] = np.asarray(fam[0]["tau"], float)
        xs = np.array([row["x"] for row in fam])
        ts = np.array([row["t"] for row in fam], float)
        if xs[0] == 0.0 and np.max(np.abs(ts[0] - tau[fid])) > MATCH_TOL:
            fails.append(f"family {fid} does not start at tau")
        if xs[-1] > 0:
            slope[fid] = (ts[-1] - tau[fid]) / xs[-1]
            bend = float(np.max(np.abs(tau[fid] + xs[:, None] * slope[fid] - ts)))
            if bend > 1e-9:
                fails.append(f"family {fid} is not straight ({bend:.1e})")
        rho = z_states([row["r"] for row in fam], [row["s"] for row in fam], ts)
        if np.min(min_eig(rho)) < -PSD_TOL:
            fails.append(f"family {fid} leaves the state body")
    for (fa, fb), (x, x2, mu) in crossings.items():
        for fid, xp in ((fa, x), (fb, x2)):
            if fid not in slope:
                continue
            miss = float(np.max(np.abs(tau[fid] + xp * slope[fid] - mu)))
            if miss > 1e-8 * max(1.0, abs(xp)):
                fails.append(f"crossing of {fa},{fb} misses family {fid} by {miss:.1e}")
    return fails
