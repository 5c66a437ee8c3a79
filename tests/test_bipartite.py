import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_block
from otoclab import bipartite, otoc
from otoclab.kicked_rotor import floquet_single, interaction_diag
from otoclab.operators import OperatorMatrix, cosine_observable, embed
from otoclab.rmt import sample_cue


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_split_dim():
    assert bipartite.split_dim(49) == 7
    with pytest.raises(ValueError):
        bipartite.split_dim(50)


def _kron_of(U, side, n):
    """The N^2 x N^2 matrix of an (N, N) factor, or of an (N,) diagonal,
    on ``side``."""
    M = np.diag(U) if U.ndim == 1 else U
    return np.kron(M, np.eye(n)) if side == "left" else np.kron(np.eye(n), M)


class TestApplyLocal:
    @given(n=st.integers(2, 6), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_kron_matvec(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = _random_complex(rng, n * n)
        for side in ("left", "right"):
            for U in (_random_complex(rng, n, n), _random_complex(rng, n)):
                want = _kron_of(U, side, n) @ psi
                assert np.allclose(bipartite.apply_local(psi, U, side), want)

    def test_single_factor(self):
        rng = np.random.default_rng(0)
        n = 4
        U2 = _random_complex(rng, n, n)
        psi = _random_complex(rng, n * n)
        want = np.kron(np.eye(n), U2) @ psi
        assert np.allclose(bipartite.apply_local(psi, U2, "right"), want)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(1)
        n, k = 3, 5
        U1 = _random_complex(rng, n, n)
        batch = as_block(_random_complex(rng, n * n, k))
        got = bipartite.apply_local(batch, U1, "left")
        for j in range(k):
            assert np.allclose(
                got[:, j].ravel(), bipartite.apply_local(batch[:, j].ravel(), U1, "left")
            )

    @pytest.mark.parametrize("which", ["left", "right", "both"])
    @pytest.mark.parametrize("k", [1, 5, 37])
    @pytest.mark.parametrize("n", [5, 6])
    def test_block_matches_columns(self, n, k, which):
        # "both": U1 x U2 as a left call and then a right one, as apply_floquet
        rng = np.random.default_rng(10 * n + k)
        U1, U2 = _factor_pair(rng, n, which)
        cols = _random_complex(rng, n * n, k)

        def apply(X, out=None):
            if U1 is not None:
                X = bipartite.apply_local(X, U1, "left", out=None if U2 is not None else out)
            if U2 is not None:
                X = bipartite.apply_local(X, U2, "right", out=out)
            return X

        out = np.full((n, k, n), np.nan, complex)
        got = apply(as_block(cols), out=out)
        assert got is out
        for j in range(k):
            want = apply(cols[:, j].copy())
            assert np.abs(got[:, j].ravel() - want).max() <= 1e-13 * np.abs(want).max()
            assert np.allclose(want, _kron(U1, U2, n) @ cols[:, j])

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("k", [1, 5, 37])
    @pytest.mark.parametrize("n", [5, 6])
    def test_diagonal_block_matches_columns(self, n, k, side):
        rng = np.random.default_rng(10 * n + k)
        d = _random_complex(rng, n)
        cols = _random_complex(rng, n * n, k)
        out = np.full((n, k, n), np.nan, complex)
        got = bipartite.apply_local(as_block(cols), d, side, out=out)
        assert got is out
        for j in range(k):
            want = bipartite.apply_local(cols[:, j].copy(), d, side)
            assert np.array_equal(got[:, j].ravel(), want)
            assert np.allclose(want, _kron_of(d, side, n) @ cols[:, j])

    def test_out_must_be_a_contiguous_block(self):
        rng = np.random.default_rng(2)
        n = 3
        X = _random_complex(rng, n, 4, n)
        for U in (X[:, 0], X[:, 0, 0]):
            with pytest.raises(ValueError, match="C-contiguous"):
                bipartite.apply_local(X, U, "left", out=np.empty((n, 4, n), complex)[:, ::-1])
            with pytest.raises(ValueError, match="shape"):
                bipartite.apply_local(X, U, "right", out=np.empty((n, 3, n), complex))

    def test_rejects_a_column_stack(self):
        with pytest.raises(ValueError, match="probe block"):
            bipartite.apply_local(np.zeros((9, 4), complex), np.eye(3), "left")

    @pytest.mark.parametrize("U", [np.eye(3), np.ones(3)], ids=["matrix", "diagonal"])
    def test_rejects_a_bad_side(self, U):
        with pytest.raises(ValueError, match="side"):
            bipartite.apply_local(np.zeros(9, complex), U, "both")


def _from_block(block):
    """The (N^2, k) column stack of an (N, k, N) probe block."""
    n = block.shape[0]
    return block.transpose(0, 2, 1).reshape(n * n, -1)


def _unimodular(rng, size):
    return np.exp(2j * np.pi * rng.random(size))


class TestKronConjugate:
    @given(n=st.integers(2, 5), seed=st.integers(0, 1000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dense(self, n, seed, data):
        rng = np.random.default_rng(seed)
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        A = _random_complex(rng, n * n, n * n)
        d = _unimodular(rng, n * n)
        U = np.kron(U1, U2) * d  # (U1 x U2) D
        want = U.conj().T @ A @ U
        bipartite.kron_conjugate(U1, U2, A, np.empty_like(A), d)
        assert np.allclose(A, want)
        # a flat scratch of dim..dim^2 entries: blocks of 1..dim rows and
        # columns, the last one partial when w does not divide dim
        size = data.draw(st.integers(n * n, n**4), label="work size")
        want = U.conj().T @ A @ U
        bipartite.kron_conjugate(U1, U2, A, np.full(size, np.nan, complex), d)
        assert np.allclose(A, want)

    def test_scratch_smaller_than_dim_raises(self):
        rng = np.random.default_rng(7)
        n = 3
        A = _random_complex(rng, n * n, n * n)
        U1 = _random_complex(rng, n, n)
        before = A.copy()
        with pytest.raises(ValueError, match="below dim"):
            bipartite.kron_conjugate(
                U1, U1, A, np.empty(n * n - 1, complex), _unimodular(rng, n * n)
            )
        assert np.array_equal(A, before)

    def test_scratch_contents_do_not_leak(self):
        # work is pure scratch: NaN left in it must not reach the result
        rng = np.random.default_rng(5)
        n = 4
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        A = _random_complex(rng, n * n, n * n)
        d = _unimodular(rng, n * n)
        U = np.kron(U1, U2) * d
        want = U.conj().T @ A @ U
        bipartite.kron_conjugate(U1, U2, A, np.full_like(A, np.nan), d)
        assert np.allclose(A, want)

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_phase_matches_diag_conjugate(self, blocks):
        # folding D into the products equals the kick without it followed
        # by the separate diagonal conjugation
        rng = np.random.default_rng(8)
        n = 6
        U1 = _random_complex(rng, n, n)
        U2 = _random_complex(rng, n, n)
        A = _random_complex(rng, n * n, n * n)
        d = _unimodular(rng, n * n)
        work = np.full(n**4 // blocks, np.nan, complex)
        want = A.copy()
        bipartite.kron_conjugate(U1, U2, want, work, np.ones(n * n))
        bipartite.diag_conjugate(d, want)
        bipartite.kron_conjugate(U1, U2, A, work, d)
        assert np.abs(A - want).max() <= 1e-13 * np.abs(want).max()


def _hermitian(rng, n):
    m = _random_complex(rng, n, n)
    return (m + m.conj().T) / 2


def _pattern(side, blocks):
    """sum_i X_i x |i><i| ("left") or sum_i |i><i| x X_i ("right")."""
    e = np.eye(len(blocks))
    return sum(
        np.kron(X, np.outer(e[i], e[i])) if side == "left" else np.kron(np.outer(e[i], e[i]), X)
        for i, X in enumerate(blocks)
    )


def _off_pattern(side, n):
    """Mask of the entries where the other subsystem's row and column index
    differ, which a block-diagonal A holds at exactly zero."""
    i = np.arange(n * n)
    other = i % n if side == "left" else i // n
    return other[:, None] != other[None, :]


def _kicked(U1, U2, d, A):
    U = np.kron(U1, U2) * d
    return U.conj().T @ A @ U


class TestKickRoutes:
    """kron_conjugate's product and block routes against np.kron, for the
    unitary factors every kick passes it.  A stack X of shape (N, N, N)
    stands for sum_i X_i x |i><i| (``_pattern("left", X)``)."""

    @staticmethod
    def _kick(n, seed):
        rng = np.random.default_rng(seed)
        return rng, sample_cue(n, rng), sample_cue(n, rng), _unimodular(rng, n * n)

    @pytest.mark.parametrize("factor", ["diagonal", "gue"])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_product(self, n, side, factor, general_route_calls):
        rng, U1, U2, d = self._kick(n, 10 * n)
        X = np.diag(rng.standard_normal(n)) if factor == "diagonal" else _hermitian(rng, n)
        A = _pattern(side, [X] * n).astype(complex)
        want = _kicked(U1, U2, d, A)
        # X x I is the stack of n equal X and stays one; I x X is dense, and
        # a dense A takes the general route whatever its zero pattern
        arg = np.broadcast_to(X.astype(complex), (n, n, n)) if side == "left" else A
        got = bipartite.kron_conjugate(U1, U2, arg, np.full(n**3, np.nan, complex), d)
        assert got.shape == ((n, n, n) if side == "left" else A.shape)
        if side == "left":
            got = _pattern("left", got)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert len(general_route_calls) == (side == "right")

    @pytest.mark.parametrize("work", ["dim", "two_stacks", "operator", "holds_the_stack"])
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_block_diagonal(self, n, side, work, general_route_calls):
        rng, U1, U2, d = self._kick(n, 10 * n + 1)
        blocks = np.array([_hermitian(rng, n) for _ in range(n)], complex)
        A = _pattern(side, blocks)
        want = _kicked(U1, U2, d, A)
        # "dim": the least scratch each form takes, dim entries for a dense A
        # and N^3 for a stack
        least = n**3 if side == "left" else n * n
        size = {"dim": least, "two_stacks": 2 * n**3, "operator": n**4,
                "holds_the_stack": 2 * n**3}[work]
        scratch = np.full(size, np.nan, complex)
        arg = A
        if side == "left":  # the stack, or for "holds_the_stack" its copy at the start of work
            arg = blocks
            if work == "holds_the_stack":
                arg = scratch[:n**3].reshape(n, n, n)
                arg[:] = blocks
        got = bipartite.kron_conjugate(U1, U2, arg, scratch, d)
        assert got.shape == A.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert len(general_route_calls) == (side == "right")

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_zero_sentinels_of_a_dense_operator(self, n, general_route_calls):
        rng, U1, U2, d = self._kick(n, 10 * n + 2)
        A = _random_complex(rng, n * n, n * n)
        A[0, 1] = A[0, n] = 0
        want = _kicked(U1, U2, d, A)
        bipartite.kron_conjugate(U1, U2, A, np.empty(n * n, complex), d)
        assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()
        assert len(general_route_calls) == 1

    @staticmethod
    def _held_operators(monkeypatch, side, n, kicks):
        """A(t) as each kick of a series of the cosine A(0) on ``side``
        returns it, as kicked_c2_c4 holds it: mirrored onto subsystem 1 for
        side "right"."""
        held, kick = [], bipartite.kron_conjugate

        def spy(U1, U2, A, work, d, **kw):
            A = kick(U1, U2, A, work, d, **kw)
            held.append(A.copy())
            return A

        monkeypatch.setattr(bipartite, "kron_conjugate", spy)
        o = cosine_observable(n, 0.35)
        other = "right" if side == "left" else "left"
        otoc.kicked_c2_c4(embed(o, side, n), embed(o, other, n), kicks)
        return held

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_uncoupled_series_stays_a_product(self, n, side, monkeypatch):
        # at b = 0 every kick takes the product route: A(t) = X(t) x I exactly
        U1 = floquet_single(n, 9.0).entries
        U2 = floquet_single(n, 10.0).entries
        kicks = [(U1, U2, interaction_diag(n, 0.0))] * 4
        X = cosine_observable(n, 0.35).entries
        U = U1 if side == "left" else U2
        for A in self._held_operators(monkeypatch, side, n, kicks):
            X = U.conj().T @ X @ U
            assert A.shape == (n, n, n)
            assert np.array_equal(A, np.broadcast_to(A[0], A.shape))
            assert np.abs(A[0] - X).max() <= 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_coupled_kick_keeps_the_pattern_exactly(self, side, monkeypatch):
        # one kick of the local A(0) at b != 0: A(1) = D^dag ((U^dag O U) x I) D
        # is the stack of its blocks, exactly zero off the pattern, as the
        # exponent 4(t - 1) assumes
        n = 6
        U1 = floquet_single(n, 9.0).entries
        U2 = floquet_single(n, 10.0).entries
        d = interaction_diag(n, 0.5)
        (A,) = self._held_operators(monkeypatch, side, n, [(U1, U2, d)])
        assert A.shape == (n, n, n)
        assert A.any()
        # the mirrored kick for side "right": U1 and U2 swap, d transposes
        if side == "right":
            U1, U2, d = U2, U1, d.reshape(n, n).T.ravel()
        O = cosine_observable(n, 0.35).entries
        want = _kicked(U1, U2, d, np.kron(O, np.eye(n)))
        assert np.abs(_pattern("left", A) - want).max() <= 1e-12 * np.abs(want).max()


class TestStackContract:
    """The kick's route follows A's representation: a stack of equal X_i
    stays a stack, any other stack becomes the dense operator without the
    two-pass route, and a dense A takes the two-pass route once whatever
    its entries.  Results against np.kron brute force."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_equal_stack_returns_a_stack_in_work(self, n, general_route_calls):
        rng, U1, U2, d = TestKickRoutes._kick(n, 40 + n)
        X = _hermitian(rng, n)
        stack = np.array([X] * n)
        before = stack.copy()
        work = np.full(2 * n**3, np.nan, complex)
        got = bipartite.kron_conjugate(U1, U2, stack, work, d)
        assert got.shape == (n, n, n) and np.shares_memory(got, work)
        assert np.array_equal(stack, before)
        want = _kicked(U1, U2, d, np.kron(X, np.eye(n)))
        assert np.abs(_pattern("left", got) - want).max() <= 1e-12 * np.abs(want).max()
        assert not general_route_calls

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_distinct_stack_returns_the_operator(self, n, general_route_calls):
        rng, U1, U2, d = TestKickRoutes._kick(n, 50 + n)
        stack = np.array([_hermitian(rng, n) for _ in range(n)])
        stack[1] = stack[0]  # all but one X_i equal is still a distinct stack
        before = stack.copy()
        work = np.full(n**4, np.nan, complex)
        got = bipartite.kron_conjugate(U1, U2, stack, work, d)
        assert got.shape == (n * n, n * n) and not np.shares_memory(got, work)
        assert np.array_equal(stack, before)
        want = _kicked(U1, U2, d, _pattern("left", stack))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert not general_route_calls

    @pytest.mark.parametrize("form", ["random", "product", "blocks"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_dense_takes_the_two_pass_route_once(self, n, form, general_route_calls):
        # the dense forms of X x I and of sum_i X_i x |i><i| included
        rng, U1, U2, d = TestKickRoutes._kick(n, 60 + n)
        if form == "random":
            A = _random_complex(rng, n * n, n * n)
        else:
            k = 1 if form == "product" else n
            A = _pattern("left", [_hermitian(rng, n) for _ in range(k)] * (n // k))
        want = _kicked(U1, U2, d, A)
        got = bipartite.kron_conjugate(U1, U2, A, np.full(n**3, np.nan, complex), d)
        assert got is A
        assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()
        assert len(general_route_calls) == 1

    @pytest.mark.parametrize("n", [4, 5])
    def test_stack_needs_n_cubed_scratch(self, n):
        rng, U1, U2, d = TestKickRoutes._kick(n, 70 + n)
        stack = np.array([_hermitian(rng, n)] * n)
        with pytest.raises(ValueError, match="below N\\^3"):
            bipartite.kron_conjugate(U1, U2, stack, np.empty(n**3 - 1, complex), d)


class TestInnerOnly:
    """kron_conjugate(..., inner_only=True): (I x U2)^dag A (I x U2) on the
    general route; the product and block routes ignore the keyword."""

    @pytest.mark.parametrize("work", ["n3", "operator"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_kron(self, n, work, general_route_calls, inner_route_calls):
        rng = np.random.default_rng(20 + n)
        U1, U2, d = sample_cue(n, rng), sample_cue(n, rng), _unimodular(rng, n * n)
        A = _hermitian(rng, n * n)
        K = np.kron(np.eye(n), U2)
        want = K.conj().T @ A @ K
        size = {"n3": n**3, "operator": n**4}[work]
        bipartite.kron_conjugate(U1, U2, A, np.full(size, np.nan, complex), d, inner_only=True)
        assert np.abs(A - want).max() <= 1e-12 * np.abs(want).max()
        assert (len(general_route_calls), len(inner_route_calls)) == (0, 1)

    @pytest.mark.parametrize("route", ["product", "block"])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_structured_routes_ignore_the_keyword(self, n, route, inner_route_calls):
        # stacks: equal X_i take the product route, distinct ones the block route
        rng = np.random.default_rng(30 + n)
        U1, U2, d = sample_cue(n, rng), sample_cue(n, rng), _unimodular(rng, n * n)
        X = _hermitian(rng, n)
        blocks = [X] * n if route == "product" else [_hermitian(rng, n) for _ in range(n)]
        A = np.array(blocks, complex)
        full = bipartite.kron_conjugate(U1, U2, A, np.empty(n**4, complex), d).copy()
        got = bipartite.kron_conjugate(U1, U2, A, np.empty(n**4, complex), d, inner_only=True)
        assert np.array_equal(got, full)
        assert not inner_route_calls
        want = _kicked(U1, U2, d, _pattern("left", blocks))
        if route == "product":
            full = _pattern("left", full)
        assert np.abs(full - want).max() <= 1e-12 * np.abs(want).max()

    def test_scratch_below_n_cubed_raises(self):
        rng = np.random.default_rng(9)
        n = 4
        A = _random_complex(rng, n * n, n * n)
        U = sample_cue(n, rng)
        before = A.copy()
        with pytest.raises(ValueError, match="below N\\^3"):
            bipartite.kron_conjugate(
                U, U, A, np.empty(n**3 - 1, complex), _unimodular(rng, n * n), inner_only=True
            )
        assert np.array_equal(A, before)


def test_diag_conjugate():
    rng = np.random.default_rng(2)
    d = np.exp(1j * rng.random(9))
    A = _random_complex(rng, 9, 9)
    D = np.diag(d)
    want = D.conj().T @ A @ D
    bipartite.diag_conjugate(d, A)
    assert np.allclose(A, want)


def _factor_pair(rng, n, which):
    """(U1, U2) for M x I ("left"), I x M ("right") or U1 x U2 ("both"),
    with None standing for the identity."""
    U1 = _random_complex(rng, n, n) if which in ("left", "both") else None
    U2 = _random_complex(rng, n, n) if which in ("right", "both") else None
    return U1, U2


def _kron(U1, U2, n):
    eye = np.eye(n)
    return np.kron(eye if U1 is None else U1, eye if U2 is None else U2)


class TestApplyLocalOperator:
    @pytest.mark.parametrize("which", ["left", "right", "both"])
    @given(n=st.integers(2, 5), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_matches_kron(self, which, n, seed):
        # "both": a left call, then a right one on its result
        rng = np.random.default_rng(seed)
        X = _random_complex(rng, n * n, n * n)
        U1, U2 = _factor_pair(rng, n, which)
        got = as_block(X)
        for U, side in ((U1, "left"), (U2, "right")):
            if U is not None:
                got = bipartite.apply_local(got, U, side)
        assert got.shape == (n, n * n, n)
        assert np.allclose(_from_block(got), _kron(U1, U2, n) @ X)


class TestRightMultiplyEmbedded:
    @pytest.mark.parametrize("which", ["left", "right", "both"])
    def test_matches_dense(self, which):
        # "both": a right factor, then a left one on the product
        rng = np.random.default_rng(3)
        n = 4
        X = _random_complex(rng, n * n, n * n)
        U1, U2 = _factor_pair(rng, n, which)
        got = X
        for U, side in ((U2, "right"), (U1, "left")):
            if U is not None:
                got = bipartite.right_multiply_embedded(got, U, side)
        assert got.shape == X.shape
        assert np.allclose(got, X @ _kron(U1, U2, n))

    def test_rejects_a_bad_side(self):
        with pytest.raises(ValueError, match="side"):
            bipartite.right_multiply_embedded(np.zeros((4, 4), complex), np.eye(2), "up")


@pytest.mark.parametrize("side", ["left", "right"])
def test_embedded_factors(side):
    # an embedded observable's factor and side, for both local routines
    rng = np.random.default_rng(6)
    n = 4
    op = OperatorMatrix(_random_complex(rng, n, n))
    e = embed(op, side, n)
    X = _random_complex(rng, n * n, n * n)
    got = bipartite.apply_local(as_block(X), e.op.entries, e.side)
    assert np.allclose(_from_block(got), e.dense() @ X)
    assert np.allclose(
        bipartite.right_multiply_embedded(X, e.op.entries, e.side), X @ e.dense()
    )


def test_trace_product():
    rng = np.random.default_rng(4)
    A = _random_complex(rng, 6, 6)
    B = _random_complex(rng, 6, 6)
    assert np.isclose(bipartite.trace_product(A, B), np.trace(A.conj().T @ B))
