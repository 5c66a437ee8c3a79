import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab.classical import (
    PhasePoint,
    classical_lyapunov,
    jacobian_step,
    map_step,
    poisson_otoc,
)

_TWO_PI = 2 * np.pi

# symplectic form for the (p1, q1, p2, q2) ordering
_OMEGA = np.zeros((4, 4))
_OMEGA[0, 1] = -1.0
_OMEGA[1, 0] = 1.0
_OMEGA[2, 3] = -1.0
_OMEGA[3, 2] = 1.0


class TestPhasePoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhasePoint(0.1, 1.0, 0.2, 0.3)
        with pytest.raises(ValueError):
            PhasePoint(float("nan"), 0.1, 0.2, 0.3)


class TestMapStep:
    def test_origin_is_fixed_point(self):
        x = map_step(PhasePoint(0.0, 0.0, 0.0, 0.0), 5.0, 7.0, 0.3)
        assert (x.p1, x.q1, x.p2, x.q2) == (0.0, 0.0, 0.0, 0.0)

    def test_free_rotation(self):
        # K = b = 0: pure shear, momenta conserved
        x = map_step(PhasePoint(0.25, 0.1, 0.5, 0.6), 0.0, 0.0, 0.0)
        assert x.p1 == pytest.approx(0.25)
        assert x.q1 == pytest.approx(0.35)
        assert x.p2 == pytest.approx(0.5)
        assert x.q2 == pytest.approx(0.1)  # 0.6 + 0.5 mod 1

    def test_explicit_step(self):
        K1, K2, b = 3.0, 4.0, 0.5
        x0 = PhasePoint(0.2, 0.3, 0.4, 0.1)
        x1 = map_step(x0, K1, K2, b)
        f12 = (b / _TWO_PI) * np.sin(_TWO_PI * (0.3 + 0.1))
        p1 = (0.2 + (K1 / _TWO_PI) * np.sin(_TWO_PI * 0.3) + f12) % 1
        assert x1.p1 == pytest.approx(p1)
        assert x1.q1 == pytest.approx((0.3 + p1) % 1)

    def test_zero_coupling_decouples(self):
        a = map_step(PhasePoint(0.2, 0.3, 0.4, 0.1), 3.0, 4.0, 0.0)
        b = map_step(PhasePoint(0.2, 0.3, 0.4, 0.9), 3.0, 4.0, 0.0)
        assert a.p1 == b.p1 and a.q1 == b.q1


class TestJacobian:
    @given(
        q1=st.floats(0.0, 0.999),
        q2=st.floats(0.0, 0.999),
        K1=st.floats(0.0, 20.0),
        K2=st.floats(0.0, 20.0),
        b=st.floats(0.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symplectic(self, q1, q2, K1, K2, b):
        M = jacobian_step(PhasePoint(0.1, q1, 0.1, q2), K1, K2, b)
        assert abs(np.linalg.det(M) - 1.0) < 1e-9
        assert np.abs(M.T @ _OMEGA @ M - _OMEGA).max() < 1e-9

    def test_finite_difference(self):
        from otoclab.classical import _step_arrays

        K1, K2, b = 1.3, 0.8, 0.4
        x0 = np.array([0.31, 0.27, 0.43, 0.62])
        M = jacobian_step(PhasePoint(*x0), K1, K2, b)
        h = 1e-6
        num = np.zeros((4, 4))
        for j in range(4):
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fp = np.array(_step_arrays(*xp, K1, K2, b))
            fm = np.array(_step_arrays(*xm, K1, K2, b))
            num[:, j] = (fp - fm) / (2 * h)
        assert np.abs(M - num).max() < 1e-5

    def test_cross_coupling_vanishes_without_b(self):
        M = jacobian_step(PhasePoint(0.1, 0.3, 0.2, 0.7), 5.0, 6.0, 0.0)
        assert np.all(M[:2, 2:] == 0.0) and np.all(M[2:, :2] == 0.0)


class TestPoissonOtoc:
    def test_zero_at_start(self):
        c = poisson_otoc(PhasePoint(0.13, 0.27, 0.41, 0.59), 9.0, 10.0, 0.05, 5)
        assert c[0] == 0.0
        # one kick cannot yet transport a q1-perturbation from p2
        assert c[1] == 0.0
        assert np.all(c[2:] > 0.0)

    def test_matches_direct_tangent_product(self):
        from otoclab.classical import _jacobian_arrays, _step_arrays

        K1, K2, b = 9.0, 10.0, 0.05
        x = np.array([0.13, 0.27, 0.41, 0.59])
        got = poisson_otoc(PhasePoint(*x), K1, K2, b, 6)
        J = np.eye(4)
        sin_q2_0_sq = np.sin(_TWO_PI * x[3]) ** 2
        want = [0.0]
        for _ in range(6):
            J = _jacobian_arrays(x[1], x[3], K1, K2, b) @ J
            x = np.array(_step_arrays(*x, K1, K2, b))
            want.append(np.sin(_TWO_PI * x[1]) ** 2 * sin_q2_0_sq * J[1, 2] ** 2)
        assert np.allclose(got, want, rtol=1e-10)

    def test_long_run_rescaling(self):
        # far past the double-precision overflow horizon the series must
        # stay finite-or-inf, never nan
        c = poisson_otoc(PhasePoint(0.13, 0.27, 0.41, 0.59), 10.0, 9.0, 0.1, 400)
        assert not np.any(np.isnan(c))
        assert np.any(np.isinf(c))  # the bracket really does blow up

    def test_needs_a_kick(self):
        with pytest.raises(ValueError):
            poisson_otoc(PhasePoint(0.1, 0.2, 0.3, 0.4), 9.0, 10.0, 0.1, 0)


class TestClassicalLyapunov:
    def test_strong_kick_rate(self):
        # 2 lambda_cl ~ 2 ln(K/2) for strong kicks; K = 9, 10 gives ~3.92
        fit = classical_lyapunov(
            9.0, 10.0, 0.05, ensemble=20_000, rng=np.random.default_rng(0)
        )
        assert fit.slope == pytest.approx(3.92, abs=0.1)
        assert fit.window == (2, 5)

    def test_stronger_kick_is_faster(self):
        rng = np.random.default_rng(1)
        slow = classical_lyapunov(9.0, 10.0, 0.05, ensemble=5_000, rng=rng)
        fast = classical_lyapunov(20.0, 21.0, 0.05, ensemble=5_000, rng=rng)
        assert fast.slope > slow.slope + 1.0

    def test_ensemble_floor(self):
        with pytest.raises(ValueError):
            classical_lyapunov(
                9.0, 10.0, 0.05, ensemble=10, rng=np.random.default_rng(0)
            )

    def test_rng_is_required(self):
        with pytest.raises(TypeError, match="rng"):
            classical_lyapunov(9.0, 10.0, 0.05, ensemble=2000)

    def test_uncoupled_is_refused_before_sampling(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="block-diagonal"):
                classical_lyapunov(9.0, 10.0, 0.0, ensemble=2000, rng=rng)
        assert rng.bit_generator.state == state
