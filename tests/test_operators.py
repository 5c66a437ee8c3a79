import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import bipartite
from otoclab.operators import (
    BudgetError,
    OperatorMatrix,
    SystemParams,
    cosine_observable,
    embed,
    gue_observable,
    translation_p,
    translation_q,
)


class TestOperatorMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            OperatorMatrix(np.zeros((2, 3)))

    def test_entries_immutable(self):
        op = OperatorMatrix(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams(N=64)
        assert p.alpha == 0.35

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            SystemParams(N=1)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SystemParams(N=4, alpha=1.0)


class TestTranslationP:
    def test_smallest_case(self):
        op = translation_p(2, 0.0)
        assert np.allclose(op.entries, np.diag([1.0, -1.0]))

    def test_quoted_element(self):
        # entry n=0 at N=4, alpha=0.35 is exp(2 pi i 0.35 / 4)
        op = translation_p(4, 0.35)
        expected = np.exp(2j * np.pi * 0.35 / 4)
        assert abs(op.entries[0, 0] - expected) < 1e-15
        assert abs(np.angle(op.entries[0, 0]) - 0.549778) < 1e-6

    @given(N=st.integers(2, 32), alpha=st.floats(0.0, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_unitary(self, N, alpha):
        op = translation_p(N, alpha)
        dev = np.abs(op.entries.conj().T @ op.entries - np.eye(N)).max()
        assert dev < 1e-12

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            translation_p(1, 0.0)


class TestTranslationQ:
    def test_cyclic_shift_positions(self):
        m = translation_q(3).entries
        assert m[1, 0] == 1 and m[2, 1] == 1 and m[0, 2] == 1
        assert np.count_nonzero(m) == 3

    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_nth_power_is_identity(self, N):
        m = translation_q(N).entries
        assert np.allclose(np.linalg.matrix_power(m, N), np.eye(N))

    @pytest.mark.parametrize("N", range(2, 9))
    def test_weyl_commutation(self, N):
        tq = translation_q(N).entries
        tp = translation_p(N, 0.35).entries
        lhs = tp @ tq
        rhs = np.exp(2j * np.pi / N) * tq @ tp
        assert np.abs(lhs - rhs).max() < 1e-12


class TestCosineObservable:
    def test_quarter_points(self):
        op = cosine_observable(4, 0.0)
        assert np.allclose(op.entries, np.diag([1.0, 0.0, -1.0, 0.0]), atol=1e-15)

    def test_trace_square(self):
        # brute-force trace of the matrix square
        op = cosine_observable(64, 0.35)
        assert abs(np.trace(op.entries @ op.entries).real - 32.0) < 1e-10

    @given(N=st.integers(3, 64), alpha=st.floats(0.0, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_trace_square_is_half_N(self, N, alpha):
        op = cosine_observable(N, alpha)
        assert abs(np.trace(op.entries @ op.entries).real - N / 2) < 1e-10

    def test_eigenvalues_bounded(self):
        vals = np.linalg.eigvalsh(cosine_observable(17, 0.2).entries)
        assert vals.min() >= -1.0 - 1e-12 and vals.max() <= 1.0 + 1e-12


class TestGueObservable:
    def test_hermitian_and_deterministic(self):
        a = gue_observable(16, 42)
        b = gue_observable(16, 42)
        assert np.array_equal(a.entries, b.entries)
        assert np.abs(a.entries - a.entries.conj().T).max() == 0.0

    def test_second_moment(self):
        # E|M_ij|^2 = 2 gives E Tr(O^2) = N^2 for O = (M + M^dag)/2:
        # every entry of O has unit mean square.  (Monte Carlo oracle.)
        N = 64
        vals = [
            np.sum(np.abs(gue_observable(N, seed).entries) ** 2) / N**2
            for seed in range(200)
        ]
        assert abs(np.mean(vals) - 1.0) < 0.05


class TestEmbed:
    def test_left_embedding_hermitian(self):
        o = cosine_observable(4, 0.1)
        big = embed(o, "left", 5)
        assert big.dim == 20
        assert np.array_equal(big.op.entries, big.op.entries.conj().T)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_dense_is_kron(self, side):
        # a 4 x 4 factor next to a 5-dimensional identity
        o = gue_observable(4, 9)
        eye = np.eye(5)
        want = np.kron(o.entries, eye) if side == "left" else np.kron(eye, o.entries)
        assert np.array_equal(embed(o, side, 5).dense(), want)

    def test_trace_factorization(self):
        o = gue_observable(6, 3)
        big = embed(o, "right", 4).dense()
        t_small = np.trace(o.entries @ o.entries)
        t_big = np.trace(big @ big)
        assert abs(t_big - 4 * t_small) < 1e-9

    def test_identity_case(self):
        eye = OperatorMatrix(np.eye(3))
        big = embed(eye, "left", 3)
        assert np.allclose(big.dense(), np.eye(9))

    def test_holds_only_the_factor(self):
        # embedding is free above the dense budget; only dense() is checked
        o = cosine_observable(128, 0.0)
        big = embed(o, "left", 128)
        assert big.op is o and big.dim == 128**2
        with pytest.raises(BudgetError, match="path=stochastic"):
            big.dense()

    def test_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            embed(cosine_observable(4, 0.0), "top", 4)


def _block(N, k, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N, k, N)) + 1j * rng.standard_normal((N, k, N))


class TestEmbeddedApply:
    """A diagonal factor is applied elementwise, every other one by one gemm
    in :func:`otoclab.bipartite.apply_local`."""

    @pytest.fixture
    def gemm_calls(self, monkeypatch):
        calls, gemm = [], np.matmul

        def counted(*args, **kwargs):
            calls.append(args)
            return gemm(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        return calls

    @pytest.mark.parametrize("k", [1, 5, 37])
    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_diagonal_equals_the_gemm(self, side, N, k, gemm_calls):
        # a real diagonal, as every diagonal Hermitian factor has
        vals = np.random.default_rng(N).standard_normal(N)
        e = embed(OperatorMatrix(np.diag(vals)), side, N)
        assert np.array_equal(e.diagonal, vals)
        X = _block(N, k, k)
        got = e.apply(X, np.empty_like(X))
        assert not gemm_calls
        assert np.array_equal(got, bipartite.apply_local(X, e.op.entries, side))
        assert gemm_calls

    def test_vector_is_the_one_probe_block(self):
        e = embed(cosine_observable(6, 0.35), "left", 6)
        x = _block(6, 1, 0).ravel()
        assert np.array_equal(e.apply(x, np.empty_like(x)),
                              bipartite.apply_local(x, e.op.entries, "left"))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_tiny_off_diagonal_takes_the_gemm(self, side, gemm_calls):
        m = np.diag(np.arange(1.0, 6.0)).astype(complex)
        m[1, 3] = m[3, 1] = 1e-300
        e = embed(OperatorMatrix(m), side, 5)
        assert e.diagonal is None
        X = _block(5, 4, 1)
        got = e.apply(X, np.empty_like(X))
        assert len(gemm_calls) == 1
        assert np.array_equal(got, bipartite.apply_local(X, m, side))

    def test_observables(self):
        assert embed(cosine_observable(8, 0.35), "left", 8).diagonal is not None
        assert embed(gue_observable(8, 1), "right", 8).diagonal is None

    def test_refuses_a_strided_out(self):
        e = embed(cosine_observable(4, 0.0), "right", 4)
        X = _block(4, 3, 2)
        with pytest.raises(ValueError, match="C-contiguous"):
            e.apply(X, np.empty((4, 3, 8), complex)[:, :, ::2])
