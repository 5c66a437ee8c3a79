import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otoclab import operators
from otoclab.kicked_rotor import coupled_floquet
from otoclab.operators import BudgetError, SystemParams, translation_p, translation_q
from otoclab.phasespace import (
    coherent_frame,
    evolve_product_state,
    harper_ground_state,
    participation_ratio,
    partial_trace_over_first,
    pr_series,
    reduced_husimi,
)


@pytest.fixture(scope="module")
def frame8():
    return coherent_frame(8, 0.35)


class TestHarperGroundState:
    def test_normalized(self):
        g = harper_ground_state(16)
        assert abs(np.linalg.norm(g) - 1.0) < 1e-12

    def test_is_eigenvector(self):
        N, alpha = 12, 0.35
        g = harper_ground_state(N, alpha)
        n = np.arange(N)
        tp = np.diag(np.exp(2j * np.pi * (n + alpha) / N))
        tq = np.roll(np.eye(N), 1, axis=0)
        H = 2 * np.eye(N) - (tq + tq.T + tp + tp.conj()) / 2
        Hg = H @ g
        e = (g.conj() @ Hg).real
        assert np.linalg.norm(Hg - e * g) < 1e-10

    def test_localized(self):
        # a coherent state occupies ~sqrt(N) sites, not all N
        g = harper_ground_state(64)
        ipr = 1.0 / np.sum(np.abs(g) ** 4)
        assert ipr < 16


class TestCoherentFrame:
    def test_states_are_translates(self, frame8):
        N = 8
        g = harper_ground_state(N, 0.35)
        tp = translation_p(N, 0.35).entries
        tq = translation_q(N).entries
        for n, m in [(0, 0), (1, 0), (0, 1), (3, 5)]:
            want = np.linalg.matrix_power(tp, m) @ np.linalg.matrix_power(tq, n) @ g
            assert np.allclose(frame8.state(n, m), want)

    def test_normalized(self, frame8):
        norms = np.linalg.norm(frame8.states, axis=1)
        assert np.allclose(norms, 1.0)

    def test_resolution_of_identity(self, frame8):
        # (1/N) sum |nm><nm| = I exactly, not just approximately
        S = frame8.states
        proj = S.conj().T @ S / 8
        assert np.abs(proj - np.eye(8)).max() < 1e-12

    def test_index_bounds(self, frame8):
        with pytest.raises(IndexError):
            frame8.state(8, 0)

    def test_budget_is_checked_before_allocating(self, monkeypatch):
        # the frame and reduced_husimi's temporary take 32 N^3 = 16384 bytes at N = 8
        monkeypatch.setattr(operators, "DENSE_BUDGET_BYTES", 16383)
        with pytest.raises(BudgetError, match=r"^Husimi frame at N = 8 needs 16384 bytes"):
            coherent_frame(8)
        monkeypatch.setattr(operators, "DENSE_BUDGET_BYTES", 16384)
        assert coherent_frame(8).states.shape == (64, 8)


@pytest.fixture(scope="module")
def system():
    return coupled_floquet(SystemParams(N=8, K1=9.0, K2=10.0, b=0.2))


class TestEvolution:

    def test_initial_product_state(self, system, frame8):
        states = evolve_product_state(system, 0.7, 0.3, 0, frame=frame8)
        n0, m0 = round(0.7 * 8) % 8, round(0.3 * 8) % 8
        coh = frame8.state(n0, m0)
        assert np.allclose(states[0], np.kron(coh, coh))

    def test_unitarity(self, system, frame8):
        states = evolve_product_state(system, 0.7, 0.3, 6, frame=frame8)
        assert np.allclose(np.linalg.norm(states, axis=1), 1.0)

    def test_matches_dense_propagator(self, system, frame8):
        states = evolve_product_state(system, 0.7, 0.3, 3, frame=frame8)
        U = system.dense().entries
        psi = states[0]
        for t in range(1, 4):
            psi = U @ psi
            assert np.allclose(states[t], psi)


class TestPartialTrace:
    def test_pure_product_state(self, frame8):
        a = frame8.state(1, 2)
        b = frame8.state(5, 3)
        rho = partial_trace_over_first(np.kron(a, b), 8)
        assert np.allclose(rho, np.outer(b, b.conj()))

    def test_density_matrix_input(self, frame8):
        a = frame8.state(0, 0)
        b = frame8.state(2, 2)
        psi = np.kron(a, b)
        from_vec = partial_trace_over_first(psi, 8)
        rho = np.outer(psi, psi.conj()).reshape(8, 8, 8, 8)
        assert np.allclose(from_vec, rho.trace(axis1=0, axis2=2))

    def test_trace_one(self, frame8):
        psi = (np.kron(frame8.state(0, 0), frame8.state(1, 1))
               + np.kron(frame8.state(3, 3), frame8.state(4, 4)))
        psi /= np.linalg.norm(psi)
        rho = partial_trace_over_first(psi, 8)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-12

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            partial_trace_over_first(np.zeros(10), 3)


class TestHusimi:
    def test_normalization(self, frame8):
        rho = np.diag(np.arange(1.0, 9.0))
        rho /= np.trace(rho)
        grid = reduced_husimi(rho, frame8)
        assert grid.sum() == pytest.approx(8.0)

    def test_matches_coherent_expectations(self, frame8):
        # Q(n, m) = <n,m|rho|n,m>, one state at a time, scaled to sum N
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = m @ m.conj().T
        want = np.array([np.vdot(s, rho @ s).real for s in frame8.states])
        want *= 8 / want.sum()
        got = reduced_husimi(rho, frame8).ravel()
        assert np.allclose(got, want, rtol=1e-13, atol=0)

    def test_maximally_mixed_is_flat(self, frame8):
        grid = reduced_husimi(np.eye(8) / 8, frame8)
        assert np.allclose(grid, 1.0 / 8)
        assert participation_ratio(grid) == pytest.approx(1.0)

    def test_coherent_state_is_localized(self, frame8):
        a = frame8.state(3, 5)
        grid = reduced_husimi(np.outer(a, a.conj()), frame8)
        # the diagonal weight peaks at the state's own grid point
        assert np.unravel_index(np.argmax(grid), (8, 8)) == (3, 5)
        assert participation_ratio(grid) < 0.5

    def test_shape_check(self, frame8):
        with pytest.raises(ValueError):
            reduced_husimi(np.eye(4), frame8)

    def test_one_frame_sized_temporary(self):
        # rho s_i for every frame state, and no conjugate copy of the frame
        N = 32
        frame = coherent_frame(N, 0.35)
        rng = np.random.default_rng(5)
        m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        rho = m @ m.conj().T
        tracemalloc.start()
        try:
            reduced_husimi(rho, frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * frame.states.nbytes


class TestParticipationRatio:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_range_and_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        N = 6
        vals = rng.random((N, N)) + 1e-12
        vals *= N / vals.sum()
        pr = participation_ratio(vals)
        assert 1.0 / N**2 - 1e-12 <= pr <= 1.0 + 1e-12
        shuffled = vals.ravel().copy()
        rng.shuffle(shuffled)
        assert participation_ratio(shuffled.reshape(N, N)) == pytest.approx(pr)


class TestPrSeries:
    def test_delocalization(self):
        # chaotic coupled dynamics spreads the reduced state: PR rises from
        # the localized coherent-state value toward the flat-grid plateau
        F = coupled_floquet(SystemParams(N=16, K1=9.0, K2=10.0, b=0.5))
        pr = pr_series(F, 0.7, 0.3, 8)
        assert pr[0] < 0.25
        assert pr[-1] > 0.6
        assert pr[-1] > pr[0]

    def test_frame_reuse_matches(self):
        F = coupled_floquet(SystemParams(N=8, K1=9.0, K2=10.0, b=0.3))
        frame = coherent_frame(8, 0.35)
        assert np.allclose(
            pr_series(F, 0.7, 0.3, 4, frame=frame), pr_series(F, 0.7, 0.3, 4)
        )
