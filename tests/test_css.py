import math

import numpy as np
import pytest

from reegeom import css, qstate, revmap
from reegeom.css import FamilyKind, FamilyTag
from reegeom.errors import InvalidState, NotConverged, RankDeficient, ReegeomError
from reegeom.ree import ReeReport, relative_entropy

from conftest import random_density_matrix, random_unitary


def rotated(rho, rng):
    lu = qstate.LocalUnitary(random_unitary(rng), random_unitary(rng))
    return lu.apply(rho)


def match_templates_loop(dpf, tol=css.CLASSIFY_TOL):
    """Reference: _match_templates as a Python loop over the frames in order."""
    eye = np.eye(3)
    if np.linalg.norm(dpf.r) <= tol and np.linalg.norm(dpf.s) <= tol:
        return FamilyTag(FamilyKind.BELL_DIAGONAL), eye, eye
    for pa, pb in qstate.signed_permutation_frames():
        r2, s2 = pa @ dpf.r, pb @ dpf.s
        q2 = np.diag(pa @ np.diag(dpf.q) @ pb.T)
        if max(abs(r2[0]), abs(r2[1]), abs(s2[0]), abs(s2[1])) > tol:
            continue
        l1 = q2[0]
        if abs(q2[0] + q2[1]) > tol or l1 < -tol:
            continue
        for kind, ok, w in [
                (FamilyKind.GENERALIZED_VP,
                 abs(r2[2] - s2[2]) <= tol and abs(q2[2] - 1.0) <= tol,
                 (r2[2] + s2[2]) / 2),
                (FamilyKind.GENERALIZED_HORODECKI,
                 abs(r2[2] + s2[2]) <= tol and abs(q2[2] - (2 * l1 - 1)) <= tol,
                 (r2[2] - s2[2]) / 2)]:
            l2, l3 = (1 - l1 + w) / 2, (1 - l1 - w) / 2
            if ok and w >= 0 and l3 >= -tol:  # w >= 0: l2 >= l3
                return FamilyTag(kind, css._clip_weights(l1, l2, l3)), pa, pb
    return FamilyTag(FamilyKind.OTHER), eye, eye


class TestMatchTemplates:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(9)
        inputs = []
        for _ in range(40):
            lam = tuple(rng.dirichlet([1, 1, 1]))
            for rho in (css._vp_state(lam), css._horodecki_state(lam),
                        qstate.bell_diagonal(rng.uniform(-0.5, 0.5, 3))):
                inputs += [rho, rotated(rho, rng),
                           0.999 * rho + 0.001 * random_density_matrix(rng)]
            inputs.append(random_density_matrix(rng))
        kinds = set()
        for rho in inputs:
            dpf, _ = qstate.canonicalize(rho)
            for tol in (css.CLASSIFY_TOL, 1e-2):
                tag, pa, pb = css._match_templates(dpf, tol)
                want, want_pa, want_pb = match_templates_loop(dpf, tol)
                assert tag == want
                assert np.array_equal(pa, want_pa) and np.array_equal(pb, want_pb)
                kinds.add(tag.kind)
        assert kinds == set(FamilyKind)

    def test_partner_frame_in_set(self):
        """diag(1, -1, -1) (P_A, P_B) is a frame too: it keeps q and every
        template test, and negates w, so one of the pair has w >= 0."""
        d = np.diag([1.0, -1.0, -1.0])
        frames = qstate.SIGNED_PERMUTATION_FRAMES
        for pa, pb in frames:
            partner = np.array([d @ pa, d @ pb])
            assert np.any(np.all(frames == partner, axis=(1, 2, 3)))

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
        def rank_deficient(lam):
            raise RankDeficient("regularized CSS")

        monkeypatch.setattr(revmap, "recover_vp", rank_deficient)
        res = css.css_vp((0.5, 0.3, 0.2))
        assert math.isnan(res.residuals["recovery_gap"])

    def test_recovery_programming_error_propagates(self, monkeypatch):
        def broken(lam):
            raise TypeError("bug in the reverse map")

        monkeypatch.setattr(revmap, "recover_vp", broken)
        with pytest.raises(TypeError):
            css.css_vp((0.5, 0.3, 0.2))

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
            assert abs(qstate.min_pt_eigenvalue(res.css)) <= 1e-8
            assert relative_entropy(rot, res.css) == pytest.approx(res.ree, abs=1e-10)

    def test_two_pauli_transforms(self, monkeypatch):
        """A rotated family state's css_auto takes the Pauli form of rho once
        and of its mapped-back CSS once; its residuals are the template's,
        bit for bit, with the Bloch gap of rho and that CSS."""
        rng = np.random.default_rng(8)
        for rho0, build in [(css._vp_state((0.5, 0.3, 0.2)), css.css_vp),
                            (css._horodecki_state((0.6, 0.3, 0.1)), css.css_horodecki)]:
            rho = rotated(rho0, rng)
            template = build(css.classify(rho).lambdas)
            calls = []
            to_pauli = qstate.to_pauli

            def counting(m):
                calls.append(m)
                return to_pauli(m)

            monkeypatch.setattr(css, "to_pauli", counting)
            monkeypatch.setattr(qstate, "to_pauli", counting)
            res = css.css_auto(rho)
            monkeypatch.undo()
            assert len(calls) == 2
            p_rho, p_css = qstate.to_pauli(rho), qstate.to_pauli(res.css)
            assert res.residuals == {
                "bloch_gap": float(max(np.linalg.norm(p_css.r - p_rho.r),
                                       np.linalg.norm(p_css.s - p_rho.s))),
                "edge_gap": template.residuals["edge_gap"],
                "recovery_gap": template.residuals["recovery_gap"]}
            assert res.ree == template.ree

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidState):
            css.css_auto(np.full((4, 4), np.nan, dtype=complex))

    def test_geometric_unavailable(self, rng):
        rho = random_density_matrix(rng)
        res = css.css_auto(rho, numeric_fallback=False)
        assert res.family.kind is FamilyKind.OTHER
        assert res.css is None

    def test_numeric_fallback(self, rng):
        while True:
            rho = random_density_matrix(rng, rank=2)
            if not qstate.is_ppt(rho) and css.classify(rho).kind is FamilyKind.OTHER:
                break
        res = css.css_auto(rho)
        assert not res.geometric
        assert res.ree > 0
        assert qstate.is_ppt(res.css, tol=1e-7)

    def test_unconverged_fallback_raises(self, monkeypatch):
        """An unconverged oracle is an error, not an REE."""
        rng = np.random.default_rng(7)
        rho = 0.3 * random_density_matrix(rng) + 0.7 * qstate.BELL_STATES[0]
        assert css.classify(rho).kind is FamilyKind.OTHER and not qstate.is_ppt(rho)
        report = ReeReport(value=0.3, css_numeric=np.eye(4) / 4, gap=2e-3,
                           iterations=600, converged=False, lower=0.298)
        monkeypatch.setattr(css, "ree_numeric", lambda rho, cfg=None: report)
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
