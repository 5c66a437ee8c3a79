import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_block
from otoclab.kicked_rotor import (
    apply_floquet,
    coupled_floquet,
    floquet_single,
    interaction_diag,
)
from otoclab.operators import BudgetError, SystemParams


class TestFloquetSingle:
    @given(N=st.integers(2, 32), K=st.floats(0.0, 30.0))
    @settings(max_examples=30, deadline=None)
    def test_unitary(self, N, K):
        U = floquet_single(N, K)
        dev = np.abs(U.entries.conj().T @ U.entries - np.eye(N)).max()
        assert dev < 1e-10

    def test_column_magnitudes(self):
        # every matrix element has magnitude 1/sqrt(N): a quadratic
        # Gauss-sum structure times pure kick phases
        U = floquet_single(8, 7.3, alpha=0.2)
        assert np.allclose(np.abs(U.entries), 1 / np.sqrt(8))

    def test_explicit_element(self):
        N, K, alpha = 4, 5.0, 0.35
        U = floquet_single(N, K, alpha)
        n, n_prime = 2, 1
        want = (
            np.exp(-1j * (N * K / (2 * np.pi)) * np.cos(2 * np.pi * (n + alpha) / N))
            * np.exp(1j * np.pi * (n - n_prime) ** 2 / N)
            / np.sqrt(N)
        )
        assert abs(U.entries[n_prime, n] - want) < 1e-14

    def test_zero_kick_is_free_propagator(self):
        N = 6
        U = floquet_single(N, 0.0)
        n = np.arange(N)
        free = np.exp(1j * np.pi * (n[None, :] - n[:, None]) ** 2 / N) / np.sqrt(N)
        assert np.allclose(U.entries, free)

    def test_rejects_nonfinite_kick(self):
        for K in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="phase N K / 2 pi is not finite"):
                floquet_single(4, K)

    def test_rejects_overflowing_kick_phase(self):
        # K is finite, but N K / 2 pi overflows to inf
        with pytest.raises(ValueError, match="phase N K / 2 pi is not finite"):
            floquet_single(64, 1e308)


class TestInteractionDiag:
    def test_zero_coupling(self):
        assert np.allclose(interaction_diag(5, 0.0), np.ones(25))

    def test_row_major_layout(self):
        N, b, alpha = 4, 0.7, 0.35
        d = interaction_diag(N, b, alpha)
        n1, n2 = 2, 3
        want = np.exp(
            -1j * (N * b / (2 * np.pi)) * np.cos(2 * np.pi * (n1 + n2 + 2 * alpha) / N)
        )
        assert abs(d[n1 * N + n2] - want) < 1e-14

    def test_unimodular(self):
        assert np.allclose(np.abs(interaction_diag(7, 1.3)), 1.0)

    @pytest.mark.parametrize("b", [float("nan"), -float("inf"), 1e308])
    def test_rejects_nonfinite_phase(self, b):
        with pytest.raises(ValueError, match="phase N b / 2 pi is not finite"):
            interaction_diag(64, b)

    def test_symmetric_in_subsystems(self):
        N = 6
        d = interaction_diag(N, 0.4).reshape(N, N)
        assert np.allclose(d, d.T)


class TestCoupledFloquet:
    def test_dense_assembly(self):
        params = SystemParams(N=4, K1=3.0, K2=5.0, b=0.2)
        F = coupled_floquet(params)
        want = np.kron(F.U1.entries, F.U2.entries) @ np.diag(F.Ub_diag)
        assert np.allclose(F.dense().entries, want)

    def test_dense_budget(self):
        F = coupled_floquet(SystemParams(N=128, K1=9.0, K2=10.0, b=0.01))
        with pytest.raises(BudgetError):
            F.dense()

    def test_N_property(self):
        F = coupled_floquet(SystemParams(N=8, K1=9.0, K2=10.0))
        assert F.N == 8


class TestApplyFloquet:
    @pytest.fixture
    def small(self):
        return coupled_floquet(SystemParams(N=5, K1=9.0, K2=10.0, b=0.3))

    def test_forward_matches_dense(self, small):
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        want = small.dense().entries @ psi
        assert np.allclose(apply_floquet(small, psi, "forward"), want)

    def test_adjoint_inverts_forward(self, small):
        rng = np.random.default_rng(1)
        psi = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        back = apply_floquet(small, apply_floquet(small, psi, "forward"), "adjoint")
        assert np.allclose(back, psi)

    def test_norm_preserved(self, small):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        psi /= np.linalg.norm(psi)
        for _ in range(10):
            psi = apply_floquet(small, psi, "forward")
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_batch(self, small):
        rng = np.random.default_rng(3)
        batch = as_block(rng.standard_normal((25, 4)) + 1j * rng.standard_normal((25, 4)))
        got = apply_floquet(small, batch, "forward")
        for j in range(4):
            assert np.allclose(
                got[:, j].ravel(), apply_floquet(small, batch[:, j].ravel(), "forward")
            )

    @pytest.mark.parametrize("direction", ["forward", "adjoint"])
    @pytest.mark.parametrize("k", [1, 5, 37])
    @pytest.mark.parametrize("N", [5, 6])
    def test_block_matches_columns(self, N, k, direction):
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=0.3))
        U = F.dense().entries
        U = U if direction == "forward" else U.conj().T
        rng = np.random.default_rng(N * k)
        cols = rng.standard_normal((N * N, k)) + 1j * rng.standard_normal((N * N, k))
        block = as_block(cols)
        got = apply_floquet(F, block, direction)
        assert np.array_equal(block, as_block(cols))  # without out, the input stays
        for j in range(k):
            want = apply_floquet(F, cols[:, j], direction)
            assert np.abs(got[:, j].ravel() - want).max() <= 1e-13
            assert np.allclose(want, U @ cols[:, j])

    @pytest.mark.parametrize("direction", ["forward", "adjoint"])
    def test_out_is_written_in_place(self, small, direction):
        rng = np.random.default_rng(4)
        block = rng.standard_normal((5, 3, 5)) + 1j * rng.standard_normal((5, 3, 5))
        want = apply_floquet(small, block, direction)
        buf = np.full_like(block, np.nan)
        got = apply_floquet(small, block.copy(), direction, out=buf)
        assert np.shares_memory(got, buf)
        assert np.array_equal(got, want)

    def test_out_needs_contiguous_blocks_of_one_shape(self, small):
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_floquet(small, np.zeros((5, 2, 5), complex), out=np.zeros((5, 3, 5), complex))
        with pytest.raises(ValueError, match="C-contiguous"):
            apply_floquet(small, as_block(np.zeros((25, 2), complex)), out=np.zeros((5, 2, 5), complex))

    def test_bad_direction(self, small):
        with pytest.raises(ValueError, match="direction"):
            apply_floquet(small, np.zeros(25), "sideways")

    def test_bad_length(self, small):
        with pytest.raises(ValueError):
            apply_floquet(small, np.zeros(24), "forward")
        with pytest.raises(ValueError, match="N = 5"):
            apply_floquet(small, np.zeros((6, 2, 6)), "forward")
