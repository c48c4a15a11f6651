import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reegeom import css, geometry, qstate, revmap
from reegeom.css import FamilyKind, FamilyTag
from reegeom.errors import InvalidState, NotConverged, NotEdgeState, RankDeficient, ReegeomError
from reegeom.ree import (SUPPORT_TOL, ReeReport, directional_optimality_check, ree_numeric,
                         relative_entropy)

from conftest import (entangled_random_state, hermitian_part, random_density_matrix,
                      random_unitary, reference_frames, rotate)


def rotated(rho, rng):
    return rotate(rho, random_unitary(rng), random_unitary(rng))


FRAMES = reference_frames()


def family_state(kind, rng) -> np.ndarray:
    """A state of one kind drawn from rng, in its template frame: "bell"
    (t in the tetrahedron), "vp", "horodecki", "werner", "maximally-correlated"
    (half of them pure), "horodecki-1/3" (l1 = 1/3 + {0, 1e-12, 1e-10, 1e-8},
    where the canonical frame is degenerate) or "other" (random, rank 1 to 4)."""
    if kind == "bell":
        return qstate.bell_diagonal(
            rng.dirichlet(np.ones(4)) @ np.array(list(geometry.TETRA_VERTICES.values())))
    if kind == "werner":
        p = rng.uniform()
        return p * qstate.BELL_STATES[0] + (1 - p) * np.eye(4) / 4
    if kind == "maximally-correlated":
        a = rng.uniform()
        z = math.sqrt(a * (1 - a)) * (1.0 if rng.uniform() < 0.5 else rng.uniform())
        return css._vp_state((2 * z, a - z, 1 - a - z))
    if kind == "other":
        return random_density_matrix(rng, rank=int(rng.integers(1, 5)))
    if kind == "horodecki-1/3":
        l1 = 1 / 3 + (0.0, 1e-12, 1e-10, 1e-8)[rng.integers(4)]
        l2 = rng.uniform(0, 1 - l1)
        return css._horodecki_state((l1, l2, 1 - l1 - l2))
    lam = tuple(rng.dirichlet(np.ones(3)))
    return (css._vp_state if kind == "vp" else css._horodecki_state)(lam)


def match_templates_loop(dpf, tol=css.CLASSIFY_TOL):
    """Reference: _match_templates as a Python loop over all 96 frames in
    order, VP tried in every frame before Horodecki.  A template match needs
    the state's weight on the kernel of the template's CSS, |01>, |10> for
    VP and Phi- for Horodecki, to be at most SUPPORT_TOL; a VP match that
    fails only the weight test l3 >= -tol is maximally correlated."""
    eye = np.eye(3)
    if np.linalg.norm(dpf.r) <= tol and np.linalg.norm(dpf.s) <= tol:
        return FamilyTag(FamilyKind.BELL_DIAGONAL), "bell-diagonal", eye, eye
    routes = {FamilyKind.GENERALIZED_VP: "vp", FamilyKind.GENERALIZED_HORODECKI: "horodecki"}
    for kind in (FamilyKind.GENERALIZED_VP, FamilyKind.GENERALIZED_HORODECKI):
        for pa, pb in FRAMES:
            r2, s2 = pa @ dpf.r, pb @ dpf.s
            q2 = np.diag(pa @ np.diag(dpf.q) @ pb.T)
            if max(abs(r2[0]), abs(r2[1]), abs(s2[0]), abs(s2[1])) > tol:
                continue
            l1 = q2[0]
            if abs(q2[0] + q2[1]) > tol or l1 < -tol:
                continue
            if kind is FamilyKind.GENERALIZED_VP:
                ok = abs(r2[2] - s2[2]) <= tol and abs(q2[2] - 1.0) <= tol
                w = (r2[2] + s2[2]) / 2
                kernel = (1 - q2[2]) / 2
            else:
                ok = abs(r2[2] + s2[2]) <= tol and abs(q2[2] - (2 * l1 - 1)) <= tol
                w = (r2[2] - s2[2]) / 2
                kernel = (1 - q2[0] + q2[1] + q2[2]) / 4
            l2, l3 = (1 - l1 + w) / 2, (1 - l1 - w) / 2
            if not (ok and w >= 0 and kernel <= SUPPORT_TOL):  # w >= 0: l2 >= l3
                continue
            if l3 >= -tol:
                lam = np.maximum([l1, l2, l3], 0.0)
                return FamilyTag(kind, tuple(lam / lam.sum())), routes[kind], pa, pb
            if kind is FamilyKind.GENERALIZED_VP:
                return FamilyTag(FamilyKind.OTHER), "maximally-correlated", pa, pb
    return FamilyTag(FamilyKind.OTHER), "oracle", eye, eye


def numpy_frames(dpf, route):
    """Reference: the frames and weights of a template match as numpy formed
    them, by a fancy index of np.eye(3), a nested-list broadcast of the
    signs, np.maximum and a sum."""
    r, s, q = dpf.r, dpf.s, dpf.q
    k = int(np.argmax(np.abs(r) + np.abs(s)))
    i, j = (n for n in range(3) if n != k)
    sign_a, sign_s = (1.0 if r[k] >= 0 else -1.0), (1.0 if s[k] >= 0 else -1.0)
    sign_b = -sign_s if route == "horodecki" else sign_s
    sign_x = -1.0 if k == 1 else 1.0
    pa, pb = np.eye(3)[[i, j, k]] * [[[sign_x], [sign_a], [sign_a]],
                                     [[sign_x], [sign_b], [sign_b]]]
    l1, w = q[i], (abs(r[k]) + abs(s[k])) / 2
    lam = np.maximum([l1, (1 - l1 + w) / 2, (1 - l1 - w) / 2], 0.0)
    return pa, pb, tuple(lam / lam.sum())


def result_bytes(res):
    """Every field of a CssResult, floats by their bits."""
    lam = res.family.lambdas
    return (res.css.tobytes(), res.tau.tobytes(), res.family.kind,
            None if lam is None else np.array(lam, float).tobytes(), float(res.ree).hex(),
            {key: float(v).hex() for key, v in res.residuals.items()}, res.separable, res.route)


class TestMatchTemplates:
    def test_frames_and_weights_as_numpy_formed_them(self):
        """The signed-permutation frames equal np.eye(3)[[i, j, k]] * signs,
        and the weights, Python floats, the numpy expression bit for bit, on
        VP and Horodecki states in their template frame and under 10 local
        unitaries each: generic weights, l3 = 0, l2 = l3 (Bell-diagonal, as
        r = s = 0), l1 = 0 and separable Horodecki weights (route "ppt") and
        l3 < 0 (route "maximally-correlated").  Every CssResult field,
        zero signs included, is what `_solve` gives with the numpy frames:
        on route "ppt" tau is t = (P_A o P_B) q itself.  The reference reads
        rho's Hermitian part, as css_auto does."""
        rng = np.random.default_rng(51)
        cases = [(css._vp_state, lam) for lam in ((0.5, 0.3, 0.2), (0.5, 0.5, 0.0),
                                                  (0.6, 0.2, 0.2), (0.0, 0.7, 0.3),
                                                  (0.7, 0.4, -0.1))]
        cases += [(css._horodecki_state, lam) for lam in ((0.6, 0.3, 0.1), (0.5, 0.5, 0.0),
                                                          (0.6, 0.2, 0.2), (0.0, 0.7, 0.3),
                                                          (0.2, 0.5, 0.3))]
        matched, solved, zero_tau = set(), set(), 0
        for state, lam in cases:
            for n in range(11):
                rho = state(lam) if n == 0 else rotated(state(lam), rng)
                w, v = qstate.validate_density_matrix(rho)
                h = hermitian_part(rho)
                p_rho = qstate.to_pauli(h)
                dpf, r_a, r_b = qstate.canonicalize(p_rho)
                tag, route, pa, pb = css._match_templates(dpf)
                matched.add(route)
                want_pa = want_pb = np.eye(3)
                if route in ("vp", "horodecki", "maximally-correlated"):
                    want_pa, want_pb, want_lam = numpy_frames(dpf, route)
                    assert np.array_equal(pa, want_pa) and np.array_equal(pb, want_pb)
                    if route != "maximally-correlated":
                        assert all(type(x) is float for x in tag.lambdas)
                        assert np.array(tag.lambdas).tobytes() == np.array(want_lam).tobytes()
                res = css.css_auto(rho)
                want = css._solve(h, p_rho, tag, route, (want_pa * want_pb) @ dpf.q,
                                  want_pa @ r_a, want_pb @ r_b, w, v)
                assert result_bytes(res) == result_bytes(want)
                solved.add(res.route)
                zero_tau += res.route == "ppt" and route != "bell-diagonal" and (
                    res.tau == 0).any()
        assert matched == {"bell-diagonal", "vp", "horodecki", "maximally-correlated"}
        assert solved == matched | {"ppt"} and zero_tau > 0

    def test_matches_loop_reference(self, monkeypatch):
        rng, mc_rng = np.random.default_rng(9), np.random.default_rng(10)
        # local Bloch terms, which put no weight on either CSS kernel
        local = [np.kron(qstate.SX, qstate.I2), np.kron(qstate.I2, qstate.SY),
                 np.kron(qstate.SZ, qstate.I2)]
        inputs = []
        for _ in range(40):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            for rho in (css._vp_state(lam), css._horodecki_state(lam),
                        qstate.bell_diagonal(rng.uniform(-0.5, 0.5, 3))):
                inputs += [rho, rotated(rho, rng),
                           0.999 * rho + 0.001 * random_density_matrix(rng)]
            for rho in (css._vp_state(lam), css._horodecki_state(lam)):
                inputs += [rotated(rho + 1e-3 * m / 4, rng) for m in local]
            inputs.append(random_density_matrix(rng))
            # maximally correlated, pure (z^2 = ab) and mixed with z > min(a, b),
            # each also nudged off the face by white noise of weight 1e-9
            a = mc_rng.uniform(0.1, 0.9)
            for z in (math.sqrt(a * (1 - a)),
                      mc_rng.uniform(min(a, 1 - a), math.sqrt(a * (1 - a)))):
                rho = css._vp_state((2 * z, a - z, 1 - a - z))
                inputs += [rotated(rho, mc_rng),
                           rotated((1 - 1e-9) * rho + 1e-9 * np.eye(4) / 4, mc_rng)]
        kinds, routes, loose = set(), set(), set()
        tols = (css.CLASSIFY_TOL, 1e-2)
        for rho in inputs:
            dpf, _, _ = qstate.canonicalize(qstate.to_pauli(rho))
            tags = []
            for tol in tols:
                monkeypatch.setattr(css, "CLASSIFY_TOL", tol)
                tag, route, pa, pb = css._match_templates(dpf)
                want, want_route, want_pa, want_pb = match_templates_loop(dpf, tol)
                assert tag == want and route == want_route
                assert np.array_equal(pa, want_pa) and np.array_equal(pb, want_pb)
                kinds.add(tag.kind)
                routes.add(route)
                tags.append(tag.kind)
            if tags[0] is FamilyKind.OTHER:
                loose.add(tags[1])  # matched off its template at 1e-2 only
        assert kinds == set(FamilyKind)
        assert {FamilyKind.GENERALIZED_VP, FamilyKind.GENERALIZED_HORODECKI} <= loose
        assert routes == {"bell-diagonal", "vp", "horodecki", "maximally-correlated", "oracle"}

    def test_lambdas_are_a_function_of_the_state(self):
        """300 rotated VP and 300 rotated Horodecki states, each nudged by
        1e-16, keep their lambdas, ordered l2 >= l3.  Taking the first passing
        frame instead swapped l2 and l3 under the nudge on 103 of these
        Horodecki states, and left 326 of the 600 with l2 < l3."""
        rng = np.random.default_rng(11)
        for family, state in (("vp", css._vp_state), ("horodecki", css._horodecki_state)):
            n = 0
            while n < 300:
                lam = rng.dirichlet([1, 1, 1])
                if lam[0] <= 0.1 or (family == "horodecki"
                                     and lam[0] ** 2 <= 4 * lam[1] * lam[2] + 5e-3):
                    continue
                n += 1
                rho = rotated(state(tuple(lam)), rng)
                nudged = rho.copy()
                nudged[0, 0] += 1e-16
                nudged[1, 1] -= 1e-16
                a, b = css.css_auto(rho), css.css_auto(nudged)
                la, lb = np.array(a.family.lambdas), np.array(b.family.lambdas)
                assert la[1] >= la[2] and lb[1] >= lb[2]
                assert np.max(np.abs(la - lb)) <= 1e-12
                assert la == pytest.approx([lam[0], max(lam[1:]), min(lam[1:])], abs=1e-8)
                assert abs(a.ree - b.ree) <= 1e-14

    def test_vp_matching_both_templates_is_vp(self):
        """VP states with l1 <= 5e-9 match the Horodecki template too, within
        CLASSIFY_TOL, and are taken as VP with the closed-form REE.  Keeping
        the first of the 96 signed-permutation frames that passed either test
        labelled 56 of these 150 rotated states Horodecki, with REE errors up
        to 0.693 nats; 38 of the 56 kept recovery gaps within 1e-9."""
        rng = np.random.default_rng(23)
        for l1 in (1e-9, 3e-9, 5e-9):
            for _ in range(50):
                l2 = rng.uniform(0.05, 0.95) * (1 - l1)
                lam = (l1, l2, 1 - l1 - l2)
                res = css.css_auto(rotated(css._vp_state(lam), rng))
                assert res.family.kind is FamilyKind.GENERALIZED_VP, lam
                assert abs(res.ree - css.css_vp(lam).ree) <= 1e-14, lam

    def test_clipped_weights_at_the_vp_edge(self):
        """Rotated VP states with l3 = 0 read a raw l3 a few ulps below 0 on
        about a third of the draws.  They stay on the VP route, not the
        maximally correlated one, and every reported lambda is >= 0, the
        three summing to 1."""
        rng = np.random.default_rng(0)
        n_negative = 0
        for lam in [(0.9, 0.1, 0.0), (0.5, 0.5, 0.0), (0.3, 0.7, 0.0), (0.6, 0.4, 0.0)]:
            for _ in range(200):
                rho = rotated(css._vp_state(lam), rng)
                dpf, _, _ = qstate.canonicalize(qstate.to_pauli(rho))
                r, s = np.abs(dpf.r), np.abs(dpf.s)
                k = int(np.argmax(r + s))
                n_negative += (1 - np.delete(dpf.q, k)[0] - (r[k] + s[k]) / 2) / 2 < 0
                res = css.css_auto(rho)
                assert res.route == "vp" and res.family.kind is FamilyKind.GENERALIZED_VP
                assert min(res.family.lambdas) >= 0.0
                assert abs(sum(res.family.lambdas) - 1) <= 1e-15
        assert n_negative > 0


class TestClassify:
    def test_bell_diagonal(self, rng):
        rho = qstate.bell_diagonal([0.7, -0.5, 0.3])
        assert css.classify(rho).kind is FamilyKind.BELL_DIAGONAL
        assert css.classify(rotated(rho, rng)).kind is FamilyKind.BELL_DIAGONAL

    def test_vp(self, rng):
        lam = (0.5, 0.3, 0.2)
        rho = css._vp_state(lam)
        tag = css.classify(rotated(rho, rng))
        assert tag.kind is FamilyKind.GENERALIZED_VP
        assert tag.lambdas[0] == pytest.approx(0.5, abs=1e-8)
        assert sorted(tag.lambdas[1:]) == pytest.approx([0.2, 0.3], abs=1e-8)

    def test_horodecki(self, rng):
        rho = css._horodecki_state((0.6, 0.3, 0.1))
        tag = css.classify(rotated(rho, rng))
        assert tag.kind is FamilyKind.GENERALIZED_HORODECKI
        assert tag.lambdas[0] == pytest.approx(0.6, abs=1e-8)

    def test_other(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert css.classify(rho).kind is FamilyKind.OTHER

    def test_tolerance_bounds_the_family(self, monkeypatch):
        """VP (0.5, 0.3, 0.2) with its |00> term turned to cos e |00> + sin e |01>.
        At e = 1e-7 the 6e-8 of Bloch weight off the family's axis exceeds
        CLASSIFY_TOL: the state is Other, and the oracle's REE is within 1e-8
        of the VP closed form.  At e = 1e-10 it stays VP, and so does the
        e = 1e-7 state under a 100x looser tolerance."""
        def tilted(e):
            psi = np.array([np.cos(e), np.sin(e), 0.0, 0.0])
            return (0.5 * qstate.BELL_STATES[0] + 0.3 * np.outer(psi, psi)
                    + np.diag([0.0, 0.0, 0.0, 0.2])).astype(complex)

        res = css.css_auto(tilted(1e-7))
        assert res.family.kind is FamilyKind.OTHER and not res.separable
        assert abs(res.ree - css.css_vp((0.5, 0.3, 0.2)).ree) <= 1e-8
        assert css.classify(tilted(1e-10)).kind is FamilyKind.GENERALIZED_VP
        monkeypatch.setattr(css, "CLASSIFY_TOL", 1e-6)
        assert css.classify(tilted(1e-7)).kind is FamilyKind.GENERALIZED_VP


class TestBellDiagonal:
    def test_pure_bell_css(self):
        res = css.css_bell_diagonal([1.0, -1.0, 1.0])
        assert np.allclose(res.tau, [1 / 3, -1 / 3, 1 / 3])
        assert res.ree == pytest.approx(math.log(2), abs=1e-12)

    def test_face_crossing(self):
        res = css.css_bell_diagonal([0.8, -0.8, 0.8])
        assert np.allclose(res.tau, [1 / 3, -1 / 3, 1 / 3], atol=1e-12)

    def test_separable_input(self):
        res = css.css_bell_diagonal([0.3, -0.3, 0.3])
        assert res.separable and res.ree == 0.0

    def test_tau_on_octahedron_face(self, rng):
        for _ in range(50):
            t = rng.uniform(-1, 1, size=3)
            from reegeom import geometry
            if not geometry.in_tetrahedron(t) or np.sum(np.abs(t)) <= 1.02:
                continue
            res = css.css_bell_diagonal(t)
            assert np.sum(np.abs(res.tau)) == pytest.approx(1.0, abs=1e-12)
            assert res.residuals["edge_gap"] <= 1e-12


class TestVp:
    def test_css_matches_closed_form(self):
        res = css.css_vp((0.5, 0.3, 0.2))
        assert np.allclose(res.css, np.diag([0.55, 0, 0, 0.45]), atol=1e-14)
        assert np.allclose(res.tau, [0, 0, 1])

    def test_separable_edge(self):
        res = css.css_vp((0.0, 0.6, 0.4))
        assert res.separable and res.ree == 0.0

    def test_residuals_small(self, rng):
        for _ in range(20):
            lam = rng.dirichlet([1, 1, 1])
            if lam[0] < 0.05:
                continue
            res = css.css_vp(tuple(lam))
            assert res.residuals["bloch_gap"] <= 1e-12
            assert res.residuals["edge_gap"] <= 1e-10
            assert res.residuals["recovery_gap"] <= 1e-9

    def test_recovery_failure_is_nan(self, monkeypatch):
        # css reaches the reverse map through the CSS's one `ree._fit`,
        # which takes the spectra of (sigma, sigma^Gamma) it has already
        # computed; a fit with no kernel column is a CSS whose partial
        # transpose has no near-zero eigenvalue
        def no_kernel(sigma, rho, w, v):
            return np.zeros((4, 0), complex), np.zeros((0, 0), complex), np.zeros((0, 16))

        monkeypatch.setattr(css, "_fit", no_kernel)
        res = css.css_vp((0.5, 0.3, 0.2))
        assert math.isnan(res.residuals["recovery_gap"])

    @pytest.mark.parametrize("error", [RankDeficient("rank-deficient CSS"),
                                       np.linalg.LinAlgError("SVD did not converge"),
                                       NotEdgeState("raised, not an empty fit")])
    def test_other_recovery_errors_propagate(self, monkeypatch, error):
        """Only a fit with no kernel column, a CSS with no kernel in its
        partial transpose, makes the recovery gap NaN; any failure of the
        reverse map is raised, not hidden as a NaN residual."""
        def failing(sigma, rho, w, v):
            raise error

        monkeypatch.setattr(css, "_fit", failing)
        with pytest.raises(type(error)):
            css.css_vp((0.5, 0.3, 0.2))

    def test_recovery_programming_error_propagates(self, monkeypatch):
        def broken(sigma, rho, w, v):
            raise TypeError("bug in the reverse map")

        monkeypatch.setattr(css, "_fit", broken)
        with pytest.raises(TypeError):
            css.css_vp((0.5, 0.3, 0.2))

    @pytest.mark.parametrize("build, lam, error", [
        (css.css_vp, (0.5, 0.5, 0.5), InvalidState),           # trace 1.5
        (css.css_vp, (1.2, -0.1, -0.1), InvalidState),         # eigenvalue -0.1
        (css.css_horodecki, (0.5, 0.6, -0.1), InvalidState),   # eigenvalue -0.1
        (css.css_vp, (math.nan, 0.5, 0.5), InvalidState),
        (css.css_horodecki, (0.6, 0.3, math.inf), InvalidState),
        # valid states, maximally correlated and separable, outside the family
        (css.css_vp, (0.8, 0.3, -0.1), ValueError),
        (css.css_vp, (-0.1, 0.6, 0.5), ValueError)])
    def test_builders_validate_their_state(self, build, lam, error):
        """The closed-form builders take only weights of a family member: a
        matrix that is not a state raises InvalidState, as css_auto does, and
        a state with a negative weight ValueError, rather than a CSS, an REE
        and a family tag that the weights do not describe."""
        with pytest.raises(error):
            build(lam)

    def test_ree_formula(self):
        # REE equals the closed-form entropy difference of the construction
        lam = (0.5, 0.3, 0.2)
        res = css.css_vp(lam)
        direct = relative_entropy(css._vp_state(lam), res.css)
        assert res.ree == pytest.approx(direct, abs=1e-14)


class TestHorodecki:
    def test_tau_example(self):
        res = css.css_horodecki((0.6, 0.3, 0.1))
        assert np.allclose(res.tau, [0.48, -0.48, -0.04], atol=1e-14)

    def test_separable_region(self):
        # lambda1^2 <= 4 lambda2 lambda3 is the PPT condition
        res = css.css_horodecki((0.2, 0.4, 0.4))
        assert res.separable and res.ree == 0.0

    def test_concurrence_threshold(self):
        lam = (0.2, 0.4, 0.4)
        assert qstate.concurrence(css._horodecki_state(lam)) == 0.0
        lam = (0.6, 0.3, 0.1)
        c = qstate.concurrence(css._horodecki_state(lam))
        assert c == pytest.approx(0.6 - 2 * math.sqrt(0.03), abs=1e-12)

    def test_residuals_small(self, rng):
        for _ in range(20):
            lam = rng.dirichlet([1, 1, 1])
            if lam[0] ** 2 <= 4 * lam[1] * lam[2] + 1e-3:
                continue
            res = css.css_horodecki(tuple(lam))
            assert res.residuals["bloch_gap"] <= 1e-12
            assert res.residuals["edge_gap"] <= 1e-10
            assert res.residuals["recovery_gap"] <= 1e-9


class TestCssAuto:
    def test_lu_covariance(self, rng):
        for rho0 in [css._vp_state((0.5, 0.3, 0.2)),
                     css._horodecki_state((0.6, 0.3, 0.1)),
                     qstate.bell_diagonal([0.8, -0.6, 0.5])]:
            base = css.css_auto(rho0)
            rot = rotated(rho0, rng)
            res = css.css_auto(rot)
            assert res.geometric
            assert res.ree == pytest.approx(base.ree, abs=1e-10)
            assert res.residuals["bloch_gap"] <= 1e-10
            # the mapped-back CSS is a true separable state at the edge
            assert qstate.is_ppt(res.css)
            assert abs(qstate.validate_density_matrix(res.css)[0][1, 0]) <= 1e-8
            assert relative_entropy(rot, res.css) == pytest.approx(res.ree, abs=1e-10)

    @given(st.sampled_from(["bell", "vp", "horodecki", "werner"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=140)
    def test_lu_covariance_property(self, family, seed):
        """css_auto(U rho U^dag) = U css_auto(rho) U^dag, with the same REE,
        for a family state and two Haar SU(2) unitaries."""
        rng = np.random.default_rng(seed)
        rho = family_state(family, rng)
        u_a, u_b = [u / np.sqrt(np.linalg.det(u))
                    for u in (random_unitary(rng), random_unitary(rng))]
        base, res = css.css_auto(rho), css.css_auto(rotate(rho, u_a, u_b))
        for r in (base, res):
            assert not r.geometric or r.residuals["bloch_gap"] <= 1e-15
        assert np.max(np.abs(res.css - rotate(base.css, u_a, u_b))) <= 1e-12
        assert abs(res.ree - base.ree) <= 1e-12
        # the CSS is rebuilt from its Pauli form: exactly Hermitian
        assert np.array_equal(res.css, res.css.conj().T)
        assert abs(np.trace(res.css) - 1) <= 2.3e-16

    @given(st.sampled_from(["bell", "vp", "horodecki", "werner", "maximally-correlated",
                            "other"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120)
    def test_swap_and_conjugation_invariance(self, kind, seed):
        """css_auto's REE and route are unchanged, the REE within 1e-12, when
        the two qubits are swapped and when rho is complex conjugated: on
        rotated family states, maximally correlated states (pure ones
        included) and random states of rank 1 to 4, where the oracle runs."""
        rng = np.random.default_rng(seed)
        rho = rotated(family_state(kind, rng), rng)
        swap = np.eye(4)[[0, 2, 1, 3]]
        base = css.css_auto(rho)
        for image in (swap @ rho @ swap, rho.conj()):
            res = css.css_auto(image)
            assert res.route == base.route
            assert abs(res.ree - base.ree) <= 1e-12

    @given(st.sampled_from(["bell", "vp", "horodecki", "werner", "maximally-correlated",
                            "horodecki-1/3"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_differential_fuzz(self, kind, seed):
        """css_auto against the oracle on rotated family states, 70% of them
        nudged by eps in [1e-14, 1e-5], log-uniform, toward I/4, a random pure
        state or a random full-rank state: css_auto raises nothing, its REE is
        finite, a closed-form CSS (neither "reverse-map" nor "oracle") has
        lambda_min >= -1e-12, and an entangled state's REE lies inside the
        oracle's converged bracket [lower, value] within 1e-12.

        A nudge is continuous at CLASSIFY_TOL: a named family is kept or falls
        to Other, never to another family, and the REE moves by at most
        Winter's bound at trace distance <= eps with one qubit side (Commun.
        Math. Phys. 347, 291 (2016)), eps ln 2 + (1 + eps) h(eps / (1 + eps)),
        h the binary entropy in nats, plus 1e-8 for the oracle's excess."""
        rng = np.random.default_rng(seed)
        rho = rotated(family_state(kind, rng), rng)
        base = None
        if rng.uniform() < 0.7:
            rank = int(rng.choice([0, 1, 4]))
            target = np.eye(4) / 4 if rank == 0 else random_density_matrix(rng, rank)
            eps = 10 ** rng.uniform(-14, -5)
            base, rho = css.css_auto(rho), (1 - eps) * rho + eps * target
        res = css.css_auto(rho)
        if base is not None:
            if FamilyKind.OTHER not in (base.family.kind, res.family.kind):
                assert res.family.kind is base.family.kind
            p = eps / (1 + eps)
            h = -p * math.log(p) - (1 - p) * math.log1p(-p)
            assert abs(res.ree - base.ree) <= 1e-8 + eps * math.log(2) + (1 + eps) * h
        assert math.isfinite(res.ree)
        if res.route not in ("reverse-map", "oracle"):
            assert np.linalg.eigvalsh(res.css)[0] >= -1e-12
        if not res.separable:
            rep = ree_numeric(rho)
            assert rep.converged and rep.lower - 1e-12 <= res.ree <= rep.value + 1e-12

    @given(st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_low_rank_property(self, rank, seed):
        """Ginibre states of rank 1 and 2, unrotated: css_auto and the oracle
        raise no warning of any kind; a rank-1 state, pure, takes route
        "maximally-correlated", or "ppt" where it is a product state; and an
        entangled state's REE lies inside the oracle's converged bracket
        [lower, value] within 1e-12.  Rank-2 states take route "reverse-map"
        (14 of the 43 drawn), which the family fuzz never reaches."""
        rho = random_density_matrix(np.random.default_rng(seed), rank)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = css.css_auto(rho)
            rep = None if res.separable else ree_numeric(rho)
        if rank == 1:
            assert res.route == ("ppt" if res.separable else "maximally-correlated")
        if rep is not None:
            assert rep.converged and rep.lower - 1e-12 <= res.ree <= rep.value + 1e-12

    def test_two_pauli_transforms(self, monkeypatch):
        """A rotated family state's css_auto takes the Pauli form of rho's
        Hermitian part H once and of the returned CSS once.  The CSS is
        rebuilt, bit for bit, from H's own Bloch vectors and a^T diag(tau) b,
        where a, b take H to the template frame; every residual is computed
        on the pair (H, CSS), bit for bit as the public functions compute it
        from rho."""
        rng = np.random.default_rng(8)
        t_bell, t_werner = [0.8, -0.6, 0.5], 0.7 * np.array([1.0, -1.0, 1.0])
        for rho0, build in [
                (css._vp_state((0.5, 0.3, 0.2)), lambda tag: css.css_vp(tag.lambdas)),
                (css._horodecki_state((0.6, 0.3, 0.1)),
                 lambda tag: css.css_horodecki(tag.lambdas)),
                (qstate.bell_diagonal(t_bell), lambda tag: css.css_bell_diagonal(t_bell)),
                (0.7 * qstate.BELL_STATES[0] + 0.3 * np.eye(4) / 4,
                 lambda tag: css.css_bell_diagonal(t_werner))]:
            rho = rotated(rho0, rng)
            calls = []
            to_pauli = qstate.to_pauli

            def counting(m):
                calls.append(m)
                return to_pauli(m)

            monkeypatch.setattr(css, "to_pauli", counting)
            monkeypatch.setattr(qstate, "to_pauli", counting)
            res = css.css_auto(rho)
            monkeypatch.undo()
            h = hermitian_part(rho)
            assert len(calls) == 2
            assert calls[0].tobytes() == h.tobytes() and calls[1] is res.css
            p_rho = qstate.to_pauli(h)
            dpf, r_a, r_b = qstate.canonicalize(p_rho)
            tag, route, pa, pb = css._match_templates(dpf)
            a, b = pa @ r_a, pb @ r_b
            tau = css._tau(route, tag.lambdas, np.diag(pa @ np.diag(dpf.q) @ pb.T))
            assert np.array_equal(res.tau, tau)
            assert np.array_equal(res.css, qstate.from_pauli(
                qstate.PauliForm(p_rho.r, p_rho.s, a.T @ np.diag(tau) @ b)))
            p_css = qstate.to_pauli(res.css)
            assert res.residuals == {
                "bloch_gap": float(max(np.linalg.norm(p_css.r - p_rho.r),
                                       np.linalg.norm(p_css.s - p_rho.s))),
                "edge_gap": abs(qstate.validate_density_matrix(res.css)[0][1, 0]),
                "recovery_gap": float(np.max(np.abs(revmap.recover(res.css, rho) - h)))}
            assert res.ree == relative_entropy(rho, res.css)
            assert abs(res.ree - build(tag).ree) <= 1e-14

    @pytest.mark.parametrize("kind", ["bell", "vp", "horodecki", "werner",
                                      "maximally-correlated"])
    def test_css_is_from_paulis_byte_for_byte(self, kind):
        """The closed-form CSS and the route "ppt" CSS are what
        `from_pauli(PauliForm(r, s, a^T @ diag(tau) @ b))` and
        `from_pauli(p_rho)` build, byte for byte, zero signs included, with
        p_rho the Pauli form of rho's Hermitian part: on 40 states of each
        kind, half in their template frame and half under a random local
        unitary, and on each closed-form builder."""
        rng = np.random.default_rng(52)
        routes = set()
        for k in range(40):
            rho = family_state(kind, rng)
            rho = rotated(rho, rng) if k % 2 else rho
            res, p_rho = css.css_auto(rho), qstate.to_pauli(hermitian_part(rho))
            if res.separable:
                want = qstate.from_pauli(p_rho)
            else:
                dpf, r_a, r_b = qstate.canonicalize(p_rho)
                tag, route, pa, pb = css._match_templates(dpf)
                tau = css._tau(route, tag.lambdas, np.diag(pa @ np.diag(dpf.q) @ pb.T))
                a, b = pa @ r_a, pb @ r_b
                want = qstate.from_pauli(
                    qstate.PauliForm(p_rho.r, p_rho.s, a.T @ np.diag(tau) @ b))
            assert res.css.tobytes() == want.tobytes()
            routes.add(res.route)
        assert routes <= {"ppt", "bell-diagonal", "vp", "horodecki", "maximally-correlated"}
        if kind in ("bell", "vp", "horodecki"):
            for _ in range(20):
                lam = tuple(rng.dirichlet(np.ones(3)))
                t = rng.dirichlet(np.ones(4)) @ np.array(list(geometry.TETRA_VERTICES.values()))
                res, state = {"bell": (css.css_bell_diagonal(t), qstate.bell_diagonal(t)),
                              "vp": (css.css_vp(lam), css._vp_state(lam)),
                              "horodecki": (css.css_horodecki(lam),
                                            css._horodecki_state(lam))}[kind]
                p_rho = qstate.to_pauli(hermitian_part(state))
                if res.separable:
                    want = qstate.from_pauli(p_rho)
                else:
                    tau = css._tau(res.route, lam, p_rho.g.diagonal())
                    want = qstate.from_pauli(qstate.PauliForm(
                        p_rho.r, p_rho.s, np.eye(3) @ np.diag(tau) @ np.eye(3)))
                assert res.css.tobytes() == want.tobytes()

    def test_tau_is_owned_on_every_route(self, rng):
        """`CssResult.tau` is a writable float array that owns its data on
        every route of css_auto, and on every route of each closed-form
        builder, route "ppt" included.  On routes "reverse-map" and "oracle"
        it was a read-only view of the CSS's correlation tensor, and on the
        builders' route "ppt" one of rho's."""
        while True:
            other = random_density_matrix(rng, rank=4)
            if not qstate.is_ppt(other) and css.classify(other).kind is FamilyKind.OTHER:
                break
        states = [qstate.bell_diagonal([0.8, -0.6, 0.5]), css._vp_state((0.5, 0.3, 0.2)),
                  css._horodecki_state((0.6, 0.3, 0.1)), css._horodecki_state((0.2, 0.4, 0.4)),
                  css._vp_state((0.8, 0.3, -0.1)), other,
                  (1 - 1e-6) * css._vp_state((0.5, 0.3, 0.2)) + 1e-6 * np.eye(4) / 4]
        results = [css.css_auto(rotated(rho, rng)) for rho in states]
        assert [r.route for r in results] == ["bell-diagonal", "vp", "horodecki", "ppt",
                                              "maximally-correlated", "reverse-map", "oracle"]
        built = [css.css_bell_diagonal([0.8, -0.6, 0.5]), css.css_bell_diagonal([0.1, -0.1, 0.1]),
                 css.css_vp((0.5, 0.3, 0.2)), css.css_vp((0.0, 0.5, 0.5)),
                 css.css_horodecki((0.6, 0.3, 0.1)), css.css_horodecki((0.2, 0.5, 0.3))]
        assert [r.route for r in built] == ["bell-diagonal", "ppt", "vp", "ppt", "horodecki",
                                            "ppt"]
        for res in results + built:
            assert res.tau.dtype == float and res.tau.shape == (3,)
            assert res.tau.flags.writeable and res.tau.flags.owndata, res.route
            res.tau += 0.0  # raised ValueError on a read-only view

    def test_two_pauli_transforms_on_the_oracle_route(self, monkeypatch):
        """On routes "reverse-map" and "oracle" (the Newton solve given no
        step) css_auto also takes the Pauli form of rho's Hermitian part H
        once and of the CSS once, and reads tau off the latter.  Route
        "reverse-map" reads the solve's spectra and fit, and its REE and
        residuals equal their public functions on (rho, CSS) bit for bit."""
        rho = random_density_matrix(np.random.default_rng(8), rank=4)
        rho = 0.5 * rho + 0.5 * qstate.BELL_STATES[0]
        h = hermitian_part(rho)
        to_pauli = qstate.to_pauli
        _, r_a, r_b = qstate.canonicalize(to_pauli(h))
        for route, steps in (("reverse-map", revmap.NEWTON_STEPS), ("oracle", 0)):
            calls = []

            def counting(m):
                calls.append(m)
                return to_pauli(m)

            monkeypatch.setattr(css, "to_pauli", counting)
            monkeypatch.setattr(qstate, "to_pauli", counting)
            monkeypatch.setattr(revmap, "NEWTON_STEPS", steps)
            res = css.css_auto(rho)
            monkeypatch.undo()
            assert res.route == route
            assert len(calls) == 2
            assert calls[0].tobytes() == h.tobytes() and calls[1] is res.css
            assert np.array_equal(res.tau, np.diag(r_a @ to_pauli(res.css).g @ r_b.T))
            if route == "reverse-map":
                assert res.ree == relative_entropy(rho, res.css)
                assert res.residuals["edge_gap"] == abs(
                    qstate.validate_density_matrix(res.css)[0][1, 0])
                assert res.residuals["recovery_gap"] == float(
                    np.max(np.abs(revmap.recover(res.css, rho) - h)))

    def test_finite_check_once_per_matrix(self, monkeypatch):
        """css_auto on a VP state reads rho once, through `qstate._state`,
        which tests its entries for NaN and inf and forms its Hermitian part;
        the CSS, which the package builds, is checked no more: it goes
        through the unchecked `_pt_spectra` alone, once."""
        rho = rotated(css._vp_state((0.5, 0.3, 0.2)), np.random.default_rng(8))
        calls, spectra = [], []
        state, pt_spectra = qstate._state, qstate._pt_spectra
        monkeypatch.setattr(qstate, "_state", lambda m: calls.append(m) or state(m))
        monkeypatch.setattr(css, "_pt_spectra", lambda m: spectra.append(m) or pt_spectra(m))
        res = css.css_auto(rho)
        monkeypatch.undo()
        assert res.route == "vp"
        assert len(calls) == 1 and calls[0] is rho
        assert len(spectra) == 1 and spectra[0] is res.css

    @pytest.mark.parametrize("kind", ["separable", "other"])
    def test_residuals_off_the_closed_form(self, kind):
        """Where the CSS is not a closed form, rho itself (separable) or the
        oracle's (an entangled state outside the families), the residuals and
        the REE still equal the public functions on the pair (rho, CSS), bit
        for bit."""
        rng = np.random.default_rng(8)
        while True:
            rho = random_density_matrix(rng, rank=4 if kind == "separable" else 2)
            if qstate.is_ppt(rho) == (kind == "separable"):
                break
        res = css.css_auto(rho)
        assert res.separable == (kind == "separable") and res.family.kind is FamilyKind.OTHER
        p_rho, p_css = qstate.to_pauli(rho), qstate.to_pauli(res.css)
        assert res.residuals["bloch_gap"] == float(max(np.linalg.norm(p_css.r - p_rho.r),
                                                       np.linalg.norm(p_css.s - p_rho.s)))
        assert res.residuals["edge_gap"] == abs(qstate.validate_density_matrix(res.css)[0][1, 0])
        if res.separable:
            assert res.ree == 0.0 and math.isnan(res.residuals["recovery_gap"])
        else:
            assert res.ree == relative_entropy(rho, res.css)
            assert res.residuals["recovery_gap"] == float(
                np.max(np.abs(revmap.recover(res.css, rho) - rho)))

    @pytest.mark.parametrize("kind", ["vp", "separable"])
    def test_one_eigh_per_matrix_pair(self, monkeypatch, kind):
        """css_auto takes every spectrum it reads from two eigh calls, one on
        the stack (rho, rho^Gamma) and one on (CSS, CSS^Gamma), and calls
        eigvalsh nowhere; an entangled state's recovery makes one lstsq."""
        rng = np.random.default_rng(4)
        rho = rotated(css._vp_state((0.5, 0.3, 0.2)) if kind == "vp"
                      else np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), rng)
        calls = {"eigh": [], "eigvalsh": [], "lstsq": []}
        for name, log in calls.items():
            def counting(a, *args, _f=getattr(np.linalg, name), _log=log, **kwargs):
                _log.append(np.shape(a))
                return _f(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        res = css.css_auto(rho)
        monkeypatch.undo()
        assert res.separable == (kind == "separable")
        assert calls["eigh"] == [(2, 4, 4), (2, 4, 4)]
        assert calls["eigvalsh"] == []
        assert len(calls["lstsq"]) == (0 if res.separable else 1)

    @pytest.mark.parametrize("state", [css._vp_state, css._horodecki_state])
    def test_nudged_family_keeps_bloch_vectors(self, state):
        """Rotated VP and Horodecki states nudged by eps (sigma_x x I) / 4,
        inside CLASSIFY_TOL, keep their family.  Their CSS keeps rho's own
        Bloch vectors, sits on the PPT boundary, rebuilds rho through the
        reverse map, and gives the un-nudged state's REE."""
        rng = np.random.default_rng(19)
        nudge = np.kron(qstate.SX, qstate.I2) / 4
        for lam in [(0.5, 0.3, 0.2), (0.6, 0.3, 0.1), (0.9, 0.07, 0.03)]:
            u_a, u_b = random_unitary(rng), random_unitary(rng)
            base = css.css_auto(rotate(state(lam), u_a, u_b))
            for eps in (1e-9, 5e-9, 9e-9):
                res = css.css_auto(rotate(state(lam) + eps * nudge, u_a, u_b))
                assert res.family.kind is base.family.kind is not FamilyKind.OTHER
                assert not res.separable
                assert res.residuals["bloch_gap"] <= 1e-15
                assert res.residuals["edge_gap"] <= 1e-14
                assert res.residuals["recovery_gap"] <= 1e-8  # False for NaN
                assert abs(res.ree - base.ree) <= 1e-14

    @pytest.mark.parametrize("state, build, l1s", [
        (css._vp_state, css.css_vp, (0.4, 0.9)),
        (css._horodecki_state, css.css_horodecki, (0.5, 0.9))])
    def test_near_equal_weights_keep_bloch_vectors(self, state, build, l1s):
        """VP and Horodecki states with 0 < |l2 - l3| < CLASSIFY_TOL take the
        Bell-diagonal route; their CSS keeps rho's Bloch vectors (fact (i))
        and their REE is the family's closed form."""
        rng = np.random.default_rng(15)
        for l1 in l1s:
            for g in (2e-9, 5e-9, 9e-9):
                lam = (l1, (1 - l1 + g) / 2, (1 - l1 - g) / 2)
                res = css.css_auto(rotated(state(lam), rng))
                assert res.family.kind is FamilyKind.BELL_DIAGONAL
                assert res.residuals["bloch_gap"] <= 1e-15
                assert res.residuals["edge_gap"] <= 1e-14
                assert abs(res.ree - build(lam).ree) <= 1e-14

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidState):
            css.css_auto(np.full((4, 4), np.nan, dtype=complex))

    @pytest.mark.parametrize("diagonal", [[1e308, 1e308, 0, 0], [1e308, 1e308, -1e308, -1e308]],
                             ids=["trace-inf", "trace-nan"])
    def test_overflowing_state_rejected(self, diagonal):
        """Finite entries whose trace overflows, to inf or to NaN, fail the
        trace test with InvalidState and no floating-point warning (one is an
        error under this suite's filters), not at the PSD test or later."""
        with pytest.raises(InvalidState) as exc:
            css.css_auto(np.diag(diagonal).astype(complex))
        assert exc.value.invariant == "unit trace"

    def test_geometric_unavailable(self, rng):
        """No closed form covers a state that `classify` finds outside the
        families, which is what `css --method geometric` asks first; css_auto
        still returns a CSS for it."""
        rho = random_density_matrix(rng)
        assert css.classify(rho).kind is FamilyKind.OTHER
        res = css.css_auto(rho)
        assert res.family.kind is FamilyKind.OTHER
        assert res.css.shape == (4, 4) and res.geometric == res.separable

    def test_geometric_follows_family(self):
        """`geometric` is read off the family and `separable`: a hand-built
        entangled OTHER result is not geometric."""
        other = FamilyTag(FamilyKind.OTHER)
        res = css.CssResult(css=np.eye(4) / 4, tau=np.zeros(3), family=other, ree=0.1)
        assert not res.geometric
        assert css.CssResult(css=np.eye(4) / 4, tau=np.zeros(3), family=other,
                             ree=0.0, separable=True).geometric
        bell = FamilyTag(FamilyKind.BELL_DIAGONAL)
        assert css.CssResult(css=np.eye(4) / 4, tau=np.zeros(3), family=bell,
                             ree=0.1).geometric

    @pytest.mark.parametrize("face", ["pure", "vp", "horodecki"])
    def test_off_the_maximally_correlated_face(self, rng, face):
        """A state on a closed-form face, the pure state with a = 0.8 or a
        VP or Horodecki state, mixed with weight p of white noise or of a
        state in the kernel K of its CSS (|01><01| in |01>, |10> for pure
        and VP, whose CSS is diag(a, 0, 0, b), or Phi- for Horodecki), puts
        weight p tr(noise K) on K.  Up to SUPPORT_TOL that weight is dropped
        and the closed form holds, with a CSS that is a state; beyond it the
        state takes the oracle as family Other, whose REE is finite and
        inside its bracket, where the closed form's would be infinite."""
        kernel, one_sided = np.diag([0, 1, 1, 0]), np.diag([0, 1, 0, 0])
        if face == "pure":
            v = np.array([math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
            rho, route = np.outer(v, v), "maximally-correlated"
            exact = -0.8 * math.log(0.8) - 0.2 * math.log(0.2)  # S(rho_A)
        elif face == "vp":
            lam, route = (0.5, 0.3, 0.2), "vp"
            rho, exact = css._vp_state(lam), css.css_vp(lam).ree
        else:
            lam, route = (0.6, 0.3, 0.1), "horodecki"
            rho, exact = css._horodecki_state(lam), css.css_horodecki(lam).ree
            kernel = one_sided = qstate.BELL_STATES[1]
        for noise in (np.eye(4) / 4, one_sided):
            for p in (1e-13, 1e-11, 1e-9, 5e-9):
                nudged = rotated((1 - p) * rho + p * noise, rng)
                res, num = css.css_auto(nudged), ree_numeric(nudged)
                if p * np.trace(noise @ kernel).real <= SUPPORT_TOL:
                    assert res.route == route
                    assert abs(res.ree - exact) <= 1e-12
                    assert np.linalg.eigvalsh(res.css)[0] >= -qstate.PSD_TOL
                else:
                    assert res.route == "oracle" and res.family.kind is FamilyKind.OTHER
                assert num.converged and num.lower <= res.ree <= num.value

    def test_route_names_how_the_css_was_built(self, rng):
        """`route` is set on every result css_auto and the closed-form
        builders return, and is None on a hand-built one.  A nested list
        takes each route as its array does, to the same CSS and REE."""
        while True:
            other = random_density_matrix(rng, rank=4)
            if not qstate.is_ppt(other) and css.classify(other).kind is FamilyKind.OTHER:
                break
        cases = [(qstate.bell_diagonal([0.8, -0.6, 0.5]), "bell-diagonal"),
                 (css._vp_state((0.5, 0.3, 0.2)), "vp"),
                 (css._horodecki_state((0.6, 0.3, 0.1)), "horodecki"),
                 (css._horodecki_state((0.2, 0.4, 0.4)), "ppt"),
                 (css._vp_state((0.8, 0.3, -0.1)), "maximally-correlated"),
                 (other, "reverse-map"),
                 # 1e-6 of white noise off a VP state: its CSS has lambda_min
                 # near 1e-6, below revmap.RANK_FLOOR
                 ((1 - 1e-6) * css._vp_state((0.5, 0.3, 0.2)) + 1e-6 * np.eye(4) / 4,
                  "oracle")]
        for rho, route in cases:
            rho = rotated(rho, rng)
            res, listed = css.css_auto(rho), css.css_auto(rho.tolist())
            assert res.route == listed.route == route
            assert np.array_equal(res.css, listed.css) and res.ree == listed.ree
        assert css.css_bell_diagonal([0.8, -0.6, 0.5]).route == "bell-diagonal"
        assert css.css_vp((0.5, 0.3, 0.2)).route == "vp"
        assert css.css_horodecki((0.6, 0.3, 0.1)).route == "horodecki"
        assert css.css_horodecki((0.2, 0.4, 0.4)).route == "ppt"
        assert css.CssResult(css=np.eye(4) / 4, tau=np.zeros(3),
                             family=FamilyTag(FamilyKind.OTHER), ree=0.0).route is None

    def test_numeric_fallback(self, rng):
        while True:
            rho = random_density_matrix(rng, rank=2)
            if not qstate.is_ppt(rho) and css.classify(rho).kind is FamilyKind.OTHER:
                break
        res = css.css_auto(rho)
        assert not res.geometric
        assert res.ree > 0
        assert res.ree == relative_entropy(rho, res.css)
        assert qstate.validate_density_matrix(res.css)[0][1, 0] >= -1e-7

    def test_numeric_fallback_tau_in_canonical_frame(self):
        """The oracle's tau is read in rho's canonical frame, so a local
        rotation of rho leaves it in place.  Read in the input frame, it
        moved by up to 0.94 on these states."""
        rng = np.random.default_rng(3)
        n = 0
        while n < 40:
            rho = random_density_matrix(rng, rank=rng.integers(1, 5))
            if qstate.is_ppt(rho) or css.classify(rho).kind is not FamilyKind.OTHER:
                continue
            n += 1
            a, b = css.css_auto(rho), css.css_auto(rotated(rho, rng))
            assert not a.geometric and not b.geometric
            assert np.max(np.abs(a.tau - b.tau)) <= 1e-10

    @pytest.mark.parametrize("seed", [2027, 2030])
    def test_one_route_in_every_frame(self, seed):
        """300 entangled random states of rank 1 to 4 keep their route, and
        their REE within 1e-12, when the qubits are swapped, when rho is
        complex conjugated and under a random local unitary.  The Newton
        solve compares |F|_2, which these maps keep; with |F|_inf, state 15
        of rng 2030 took route "oracle" in its own frame and "reverse-map"
        under its local unitary.  Route "reverse-map" accepts only a CSS with
        lambda_min >= RANK_FLOOR, where its certificate is far from its bound
        in every frame; with no floor, 5 to 15 of the 900 images of each of
        rng 2027 to 2031 changed their route, at CSSs with lambda_min 2e-9 to
        1.5e-6 whose certificate straddles CERTIFICATE_TOL.  Over rng 2027 to
        2036, RANK_FLOOR 1e-5 gave no flip in 9,000 images, with 1,839 of the
        3,000 states on route "reverse-map" (1,507 at 1e-4), and 1e-6 gave 6."""
        rng = np.random.default_rng(seed)
        swap = np.eye(4)[[0, 2, 1, 3]]
        routes, n = set(), 0
        while n < 300:
            rho = random_density_matrix(rng, rank=int(rng.integers(1, 5)))
            if qstate.is_ppt(rho):
                continue
            n += 1
            base = css.css_auto(rho)
            routes.add(base.route)
            u_a, u_b = random_unitary(rng), random_unitary(rng)
            for image in (swap @ rho @ swap, rho.conj(), rotate(rho, u_a, u_b)):
                res = css.css_auto(image)
                assert res.route == base.route
                assert abs(res.ree - base.ree) <= 1e-12
        assert routes == {"reverse-map", "oracle", "maximally-correlated"}

    def test_recovery_gap_of_random_states(self):
        """The draws of rng 4 and 5 (ranks 1 to 4, 60 each, PPT draws
        dropped): route "reverse-map" rebuilds rho within 1e-12, and
        recovery_gap is NaN on five oracle states only, whose CSS has
        lambda_min 1.4e-8 to 2.2e-6, where the oracle's sigma ends with
        lambda_min(sigma^Gamma) above ree.EDGE_TOL, so that `recover`
        raises NotEdgeState.  The oracle served all, with 14 NaN gaps,
        before route "reverse-map"."""
        nan = []
        for seed in (4, 5):
            rng = np.random.default_rng(seed)
            for rank in range(1, 5):
                for draw in range(60):
                    rho = random_density_matrix(rng, rank)
                    if qstate.is_ppt(rho):
                        continue
                    res = css.css_auto(rho)
                    gap = res.residuals["recovery_gap"]
                    if res.route == "reverse-map":
                        assert gap <= 1e-12
                    elif math.isnan(gap):
                        assert res.route == "oracle"
                        nan.append((seed, rank, draw))
                        assert 1e-8 <= np.linalg.eigvalsh(res.css)[0] <= 3e-6
                        with pytest.raises(NotEdgeState):
                            revmap.recover(res.css, rho)
        assert nan == [(4, 3, 40), (4, 3, 55), (5, 3, 32), (5, 3, 53), (5, 4, 15)]

    def test_one_recovery_path_on_every_route(self, rng):
        """recovery_gap is max|recover(css, rho) - H| bit for bit on every
        entangled route, H rho's Hermitian part, read from the CSS's one
        `ree._fit`; where it is NaN, `recover` raises
        (`test_recovery_gap_of_random_states`)."""
        while True:
            other = random_density_matrix(rng, rank=4)
            if not qstate.is_ppt(other) and css.classify(other).kind is FamilyKind.OTHER:
                break
        cases = [(qstate.bell_diagonal([0.8, -0.6, 0.5]), "bell-diagonal"),
                 (css._vp_state((0.5, 0.3, 0.2)), "vp"),
                 (css._horodecki_state((0.6, 0.3, 0.1)), "horodecki"),
                 (css._vp_state((0.8, 0.3, -0.1)), "maximally-correlated"),
                 (other, "reverse-map"),
                 ((1 - 1e-6) * css._vp_state((0.5, 0.3, 0.2)) + 1e-6 * np.eye(4) / 4,
                  "oracle")]
        for rho, route in cases:
            rho = rotated(rho, rng)
            res = css.css_auto(rho)
            assert res.route == route
            assert res.residuals["recovery_gap"] == float(
                np.max(np.abs(revmap.recover(res.css, rho) - hermitian_part(rho))))

    def test_unconverged_fallback_raises(self, monkeypatch):
        """An unconverged oracle is an error, not an REE, where the Newton
        solve of the reverse map, given no step, has failed before it."""
        rng = np.random.default_rng(7)
        rho = 0.3 * random_density_matrix(rng) + 0.7 * qstate.BELL_STATES[0]
        assert css.classify(rho).kind is FamilyKind.OTHER and not qstate.is_ppt(rho)
        report = ReeReport(value=0.3, css_numeric=np.eye(4) / 4, gap=2e-3,
                           iterations=600, converged=False, lower=0.298)
        monkeypatch.setattr(css, "ree_numeric", lambda rho, cfg=None: report)
        monkeypatch.setattr(revmap, "NEWTON_STEPS", 0)
        with pytest.raises(NotConverged) as exc:
            css.css_auto(rho)
        assert isinstance(exc.value, ReegeomError) and exc.value.gap == 2e-3

    def test_separable_other(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho2 = rotated(rho, np.random.default_rng(7))
        res = css.css_auto(rho2)
        if not res.separable:
            # a diagonal state may still match a solvable template
            assert res.ree <= 1e-10


def vp_weights_near_degenerate():
    """VP weights with l1 in {0.4, 0.9} and |l2 - l3| from 2e-12 to 2e-4."""
    return [(l1, (1 - l1 + g) / 2, (1 - l1 - g) / 2)
            for l1 in (0.4, 0.9) for g in np.geomspace(2e-12, 2e-4, 17)]


class TestRecoveryChecksTheCss:
    """The recovery residual rebuilds rho from the CSS the construction made."""

    def test_planted_css_fails_the_recovery(self, monkeypatch, rng):
        """Each construction's tau reversed, the maximally correlated route's
        included: the CSS built from it no longer rebuilds rho."""
        tau = css._tau
        monkeypatch.setattr(css, "_tau", lambda route, lam, t: tau(route, lam, t)[::-1])
        lam_vp, lam_h = (0.5, 0.3, 0.2), (0.6, 0.3, 0.1)
        results = [css.css_vp(lam_vp), css.css_horodecki(lam_h),
                   css.css_auto(rotated(css._vp_state(lam_vp), rng)),
                   css.css_auto(rotated(css._horodecki_state(lam_h), rng)),
                   css.css_auto(rotated(css._vp_state((0.8, 0.3, -0.1)), rng))]
        assert [r.route for r in results] == ["vp", "horodecki"] * 2 + ["maximally-correlated"]
        for res in results:
            gap = res.residuals["recovery_gap"]
            assert math.isnan(gap) or gap > 1e-3

    def test_vp_recovery_exact_near_equal_weights(self):
        for lam in vp_weights_near_degenerate():
            assert css.css_vp(lam).residuals["recovery_gap"] <= 1e-14, lam

    def test_auto_vp_recovery_exact_near_equal_weights(self):
        rng = np.random.default_rng(11)
        n_vp = 0
        for lam in vp_weights_near_degenerate():
            res = css.css_auto(rotated(css._vp_state(lam), rng))
            if res.family.kind is FamilyKind.GENERALIZED_VP:
                n_vp += 1
                assert res.residuals["recovery_gap"] <= 1e-14, lam
        assert n_vp > 0

    def test_auto_recovery_exact_below_classify_tol(self):
        # |l2 - l3| < CLASSIFY_TOL takes the Bell-diagonal route, whose CSS is
        # rank-deficient; (0.6, 0.2 +- g/2) keeps the Horodecki state entangled
        rng = np.random.default_rng(12)
        for g in (2e-9, 5e-9, 9e-9):
            for state, l1 in ((css._vp_state, 0.4), (css._horodecki_state, 0.6)):
                for w in (g, -g):
                    lam = (l1, (1 - l1 + w) / 2, (1 - l1 - w) / 2)
                    res = css.css_auto(rotated(state(lam), rng))
                    assert res.family.kind is FamilyKind.BELL_DIAGONAL
                    assert not res.separable
                    assert res.residuals["recovery_gap"] <= 1e-14, lam

    def test_rank_three_bell_diagonal_css(self):
        res = css.css_auto(qstate.bell_diagonal([0.9, -0.8, 0.7]))
        assert np.linalg.eigvalsh(res.css)[0] <= 1e-12
        assert res.residuals["recovery_gap"] <= 1e-15


def anti_hermitian_parts(eps, n):
    """n anti-Hermitian K = (A - A^dagger)/2, A with standard normal real and
    imaginary parts from one rng 7 stream, each scaled to largest entry eps."""
    rng = np.random.default_rng(7)
    for _ in range(n):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        k = (a - a.conj().T) / 2
        yield eps * k / np.abs(k).max()


def bits(value):
    """A reader's result as comparable bits: arrays by their bytes, floats by
    their hex, and the fields of a dataclass or the items of a tuple in turn."""
    if hasattr(value, "__dataclass_fields__"):
        return tuple(bits(getattr(value, f)) for f in value.__dataclass_fields__)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return float(value).hex() if isinstance(value, float) else value


class TestHermitianRead:
    """Every reader sees a matrix argument's Hermitian part H, so an
    anti-Hermitian part within HERMITICITY_TOL changes nothing."""

    STATES = 300

    @pytest.fixture(scope="class")
    def states(self):
        """Criterion 12's random states and their css_auto results."""
        rng = np.random.default_rng(42)
        rhos = [entangled_random_state(rng) for _ in range(self.STATES)]
        return rhos, [css.css_auto(rho) for rho in rhos]

    @pytest.mark.parametrize("eps", [1e-14, 1e-13])
    def test_planted_anti_hermitian_parts(self, states, eps):
        """With an anti-Hermitian part of largest entry eps planted on each of
        criterion 12's 300 states, no state changes route, and css_auto of
        rho' equals css_auto of H(rho') = rho'/2 + rho'^dagger/2 bit for bit;
        when the Newton solve read H and the rest read rho itself, 19 states
        changed route at 1e-14 and 58 at 1e-13."""
        routes = set()
        for rho, res, k in zip(*states, anti_hermitian_parts(eps, self.STATES)):
            planted = rho + k
            got = css.css_auto(planted)
            assert got.route == res.route
            assert result_bytes(got) == result_bytes(css.css_auto(hermitian_part(planted)))
            routes.add(got.route)
        assert routes == {"reverse-map", "oracle"}

    def test_every_reader_sees_the_hermitian_part(self, states):
        """f(rho') == f(H(rho')) bit for bit for every other public reader of
        a matrix, on ten of the states with a 1e-13 anti-Hermitian part
        planted, and their CSSs (route "reverse-map" or "oracle") with
        another."""
        readers = {
            "classify": lambda rho, sigma: css.classify(rho),
            "validate_density_matrix": lambda rho, sigma: qstate.validate_density_matrix(rho),
            "is_ppt": lambda rho, sigma: qstate.is_ppt(rho),
            "concurrence": lambda rho, sigma: qstate.concurrence(rho),
            "ree_numeric": lambda rho, sigma: ree_numeric(rho),
            "relative_entropy": relative_entropy,
            "directional_optimality_check": directional_optimality_check,
            "recover": lambda rho, sigma: revmap.recover(sigma, rho),
            "g_matrix": lambda rho, sigma: revmap.g_matrix(sigma),
            "family_from_css": lambda rho, sigma: revmap.family_from_css(sigma, 0.1)}
        ks = anti_hermitian_parts(1e-13, 20)
        for rho, res in list(zip(*states))[:10]:
            rho, sigma = rho + next(ks), res.css + next(ks)
            for name, f in readers.items():
                assert bits(f(rho, sigma)) == bits(
                    f(hermitian_part(rho), hermitian_part(sigma))), name
