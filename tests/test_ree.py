import math
import numpy as np
import pytest

from reegeom import css, qstate, ree
from reegeom.errors import InvalidState, NotSolvableFamily
from reegeom.ree import (
    OracleConfig,
    directional_optimality_check,
    ree_geometric,
    ree_numeric,
    relative_entropy,
)

from conftest import random_density_matrix


class TestRelativeEntropy:
    def test_identical_states_zero(self, rng):
        rho = random_density_matrix(rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            assert relative_entropy(a, b) >= -1e-12

    def test_support_violation_infinite(self):
        rho = qstate.BELL_STATES[0]
        sigma = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert relative_entropy(rho, sigma) == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("which", ["rho", "sigma"])
    def test_non_finite_rejected(self, which, bad):
        good = np.eye(4, dtype=complex) / 4
        broken = np.diag([bad, 1.0, 0.0, 0.0]).astype(complex)
        args = (broken, good) if which == "rho" else (good, broken)
        with pytest.raises(InvalidState):
            relative_entropy(*args)

    def test_shared_support_finite(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        sigma = np.diag([0.25, 0.75, 0.0, 0.0]).astype(complex)
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert relative_entropy(rho, sigma) == pytest.approx(expected, abs=1e-12)

    def test_diagonal_case_is_kl_divergence(self, rng):
        p = rng.dirichlet([1] * 4)
        q = rng.dirichlet([1] * 4)
        kl = float(np.sum(p * np.log(p / q)))
        assert relative_entropy(np.diag(p).astype(complex),
                                np.diag(q).astype(complex)) == pytest.approx(kl, abs=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(30)
        rho = random_density_matrix(rng)
        k = 16
        params = np.concatenate([rng.normal(size=k, scale=0.5),
                                 rng.uniform(0, np.pi, size=k),
                                 rng.uniform(0, 2 * np.pi, size=k),
                                 rng.uniform(0, np.pi, size=k),
                                 rng.uniform(0, 2 * np.pi, size=k)])
        p_eigs = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
        s_rho = float(np.sum(p_eigs * np.log(p_eigs)))
        f0, jac = ree._objective(params, rho, k, s_rho)
        h = 1e-6
        idx = rng.choice(len(params), size=25, replace=False)
        for i in idx:
            pp = params.copy()
            pp[i] += h
            fp, _ = ree._objective(pp, rho, k, s_rho)
            pp[i] -= 2 * h
            fm, _ = ree._objective(pp, rho, k, s_rho)
            fd = (fp - fm) / (2 * h)
            scale = max(1.0, abs(jac[i]))
            assert abs(fd - jac[i]) / scale < 1e-5


class TestNumericOracle:
    def test_bell_states(self):
        for b in qstate.BELL_STATES:
            rep = ree_numeric(b, OracleConfig(restarts=4))
            assert rep.converged
            assert abs(rep.value - math.log(2)) <= 1e-4

    def test_separable_state_zero(self, rng):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rep = ree_numeric(rho, OracleConfig(restarts=4))
        assert rep.value <= 1e-6

    def test_css_is_separable(self):
        rep = ree_numeric(qstate.BELL_STATES[0], OracleConfig(restarts=4))
        assert qstate.is_ppt(rep.css_numeric, tol=1e-9)

    def test_seed_determinism(self):
        rho = css._vp_state((0.5, 0.3, 0.2))
        a = ree_numeric(rho, OracleConfig(restarts=3, seed=5))
        b = ree_numeric(rho, OracleConfig(restarts=3, seed=5))
        assert a.value == b.value


class TestGeometricRoute:
    def test_matches_numeric(self):
        for rho in [qstate.bell_diagonal([0.8, -0.6, 0.5]),
                    css._vp_state((0.5, 0.3, 0.2)),
                    css._horodecki_state((0.6, 0.3, 0.1))]:
            geo = ree_geometric(rho)
            num = ree_numeric(rho, OracleConfig(restarts=4))
            assert abs(geo.value - num.value) <= 2e-4

    def test_unsupported_family_raises(self, rng):
        while True:
            rho = random_density_matrix(rng)
            if css.classify(rho).kind is css.FamilyKind.OTHER:
                break
        with pytest.raises(NotSolvableFamily):
            ree_geometric(rho)


class TestDirectionalOptimality:
    def test_true_css_passes(self):
        res = css.css_vp((0.5, 0.3, 0.2))
        d = directional_optimality_check(css._vp_state((0.5, 0.3, 0.2)), res.css)
        assert d >= -1e-8

    def test_false_css_fails(self):
        # the maximally mixed state is separable but not closest
        rho = qstate.BELL_STATES[0]
        d = directional_optimality_check(rho, np.eye(4, dtype=complex) / 4)
        assert d < -1e-3

    def test_infinite_relative_entropy_fails(self):
        # every finite difference is inf - inf = nan here; no such css is optimal
        v = np.array([math.cos(0.4), 0, 0, math.sin(0.4)], dtype=complex)
        css00 = np.diag([1.0, 0, 0, 0]).astype(complex)
        assert directional_optimality_check(np.outer(v, v), css00) == -math.inf
