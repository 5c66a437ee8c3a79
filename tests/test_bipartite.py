import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import bipartite


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_split_dim():
    assert bipartite.split_dim(49) == 7
    with pytest.raises(ValueError):
        bipartite.split_dim(50)


class TestApplyLocal:
    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_kron_matvec(self, n, seed):
        rng = np.random.default_rng(seed)
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        psi = _random_complex(rng, n * n)
        want = np.kron(U1, U2) @ psi
        got = bipartite.apply_local(psi, U1, U2)
        assert np.allclose(got, want)

    def test_single_factor(self):
        rng = np.random.default_rng(0)
        n = 4
        U2 = _random_complex(rng, n, n)
        psi = _random_complex(rng, n * n)
        want = np.kron(np.eye(n), U2) @ psi
        assert np.allclose(bipartite.apply_local(psi, U2=U2), want)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        n, k = 3, 5
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        batch = _random_complex(rng, n * n, k)
        got = bipartite.apply_local(batch, U1, U2)
        for j in range(k):
            assert np.allclose(got[:, j], bipartite.apply_local(batch[:, j], U1, U2))


class TestKronConjugate:
    @given(n=st.integers(2, 5), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        A = _random_complex(rng, n * n, n * n)
        U = np.kron(U1, U2)
        want = U.conj().T @ A @ U
        got = bipartite.kron_conjugate(U1, U2, A)
        assert np.allclose(got, want)


def test_diag_conjugate():
    rng = np.random.default_rng(2)
    d = np.exp(1j * rng.random(9))
    A = _random_complex(rng, 9, 9)
    D = np.diag(d)
    assert np.allclose(bipartite.diag_conjugate(d, A), D.conj().T @ A @ D)


class TestRightMultiplyEmbedded:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_dense(self, side):
        rng = np.random.default_rng(3)
        n = 4
        A = _random_complex(rng, n * n, n * n)
        M = _random_complex(rng, n, n)
        eye = np.eye(n)
        big = np.kron(M, eye) if side == "left" else np.kron(eye, M)
        got = bipartite.right_multiply_embedded(A, M, side)
        assert np.allclose(got, A @ big)


class TestLeftMultiplyEmbedded:
    @pytest.mark.parametrize("side", ["left", "right"])
    @given(n=st.integers(2, 5), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_kron(self, side, n, seed):
        rng = np.random.default_rng(seed)
        X = _random_complex(rng, n * n, n * n)
        M = _random_complex(rng, n, n)
        eye = np.eye(n)
        big = np.kron(M, eye) if side == "left" else np.kron(eye, M)
        got = bipartite.left_multiply_embedded(M, X, side)
        assert np.allclose(got, big @ X)


def test_trace_product():
    rng = np.random.default_rng(4)
    A = _random_complex(rng, 6, 6)
    B = _random_complex(rng, 6, 6)
    assert np.isclose(bipartite.trace_product(A, B), np.trace(A.conj().T @ B))


def test_partial_trace_first():
    rng = np.random.default_rng(5)
    n = 3
    # product state rho1 x rho2 must reduce to tr(rho1) * rho2
    r1 = _random_complex(rng, n, n)
    r2 = _random_complex(rng, n, n)
    got = bipartite.partial_trace_first(np.kron(r1, r2))
    assert np.allclose(got, np.trace(r1) * r2)
