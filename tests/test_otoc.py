import dataclasses
import tracemalloc

import numpy as np
import pytest

from otoclab import operators, otoc, rmt
from otoclab.bipartite import apply_local, kron_conjugate
from otoclab.kicked_rotor import apply_floquet, coupled_floquet
from otoclab.operators import (
    KICK_SCRATCH_BYTES,
    BudgetError,
    OperatorMatrix,
    SystemParams,
    cosine_observable,
    embed,
    gue_observable,
)
from otoclab.otoc import (
    PROBE_BLOCK,
    OtocSeries,
    default_lyapunov_window,
    default_relaxation_window,
    ehrenfest_time,
    fit_lyapunov_phase,
    fit_relaxation_phase,
    linear_fit,
    mu_standard_map,
    otoc_series_dense,
    otoc_series_stochastic,
    saturation_value,
)
from otoclab.parallel import task_rng
from otoclab.rmt import RmtEnsembleSpec, rmt_otoc_mc


def _brute_force_series(F, A0, B0, T):
    """Naive dense-matrix OTOC: the oracle for the structured paths."""
    U = F.dense().entries
    A = A0.copy()
    c2s, c4s = [], []
    for t in range(T + 1):
        if t > 0:
            A = U.conj().T @ A @ U
        c2s.append(np.trace(A @ A @ B0 @ B0).real)
        c4s.append(np.trace(A @ B0 @ A @ B0).real)
    return np.array(c2s), np.array(c4s)


@pytest.fixture(scope="module")
def small_system():
    params = SystemParams(N=5, K1=9.0, K2=10.0, b=0.3)
    F = coupled_floquet(params)
    o = cosine_observable(5, 0.35)
    A0 = embed(o, "left", 5)
    B0 = embed(o, "right", 5)
    return F, A0, B0


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, stderr = linear_fit([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
        assert abs(slope - 2.0) < 1e-12
        assert abs(intercept - 1.0) < 1e-12
        assert stderr < 1e-12

    def test_two_points(self):
        slope, intercept, stderr = linear_fit([0, 2], [0.0, 4.0])
        assert slope == pytest.approx(2.0)
        assert stderr == 0.0

    def test_too_few(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])


class TestAnalyticRates:
    def test_saturation_value(self):
        o = cosine_observable(64, 0.35)
        assert saturation_value(o, o) == pytest.approx(32.0 * 32.0)

    def test_saturation_rejects_nonhermitian(self):
        from otoclab.operators import OperatorMatrix

        bad = OperatorMatrix(np.triu(np.ones((3, 3))))
        with pytest.raises(ValueError):
            saturation_value(bad, bad)

    def test_mu_standard_map_values(self):
        assert mu_standard_map(64, 1 / 64) == pytest.approx(0.02537051063833533)
        assert mu_standard_map(64, 2 / 64) == pytest.approx(0.1019701265608891)
        assert mu_standard_map(64, 0.04) == pytest.approx(0.16775943769189886)

    def test_mu_standard_map_domain(self):
        # argument at/beyond the first Bessel zero is rejected
        with pytest.raises(ValueError):
            mu_standard_map(64, 2 * np.pi * 2.404825557695773 / 64)

    def test_ehrenfest_values(self):
        assert ehrenfest_time(64, 10) == pytest.approx(2.5840593484403582)
        assert ehrenfest_time(256, 10) == pytest.approx(3.4454124645871445)
        assert ehrenfest_time(64, 21) == pytest.approx(1.7687024096598836)
        assert ehrenfest_time(256, 21) == pytest.approx(2.3582698795465116)

    def test_ehrenfest_domain(self):
        with pytest.raises(ValueError):
            ehrenfest_time(64, 2.0)


class TestDenseSeries:
    def test_matches_brute_force(self, small_system):
        F, A0, B0 = small_system
        series = otoc_series_dense(F, A0, B0, T=6)
        c2, c4 = _brute_force_series(F, A0.dense(), B0.dense(), 6)
        assert np.allclose(series.c2, c2, atol=1e-9)
        assert np.allclose(series.c4, c4, atol=1e-9)

    def test_initial_values(self, small_system):
        # disjoint subsystems commute at t=0, so C(0) = 0 exactly
        F, A0, B0 = small_system
        series = otoc_series_dense(F, A0, B0, T=2)
        assert abs(series.c[0]) < 1e-10
        assert series.c2[0] == pytest.approx(series.c4[0])

    def test_saturation_normalization(self, small_system):
        F, A0, B0 = small_system
        series = otoc_series_dense(F, A0, B0, T=2)
        o = cosine_observable(5, 0.35)
        assert series.c_infinity == pytest.approx(saturation_value(o, o))

    def test_requires_embedded_B(self, small_system):
        F, A0, B0 = small_system
        bare = OperatorMatrix(B0.dense())
        with pytest.raises(ValueError, match="embedded"):
            otoc_series_dense(F, A0, bare, T=1)

    def test_gue_observables(self):
        # the structured path must agree with brute force for non-diagonal
        # observables too
        F = coupled_floquet(SystemParams(N=4, K1=9.0, K2=10.0, b=0.4))
        A0 = embed(gue_observable(4, 7), "left", 4)
        B0 = embed(gue_observable(4, 8), "right", 4)
        series = otoc_series_dense(F, A0, B0, T=4)
        c2, c4 = _brute_force_series(F, A0.dense(), B0.dense(), 4)
        assert np.allclose(series.c2, c2, atol=1e-8)
        assert np.allclose(series.c4, c4, atol=1e-8)
        assert np.abs(series.c - (c2 - c4)).max() <= 1e-12 * series.c_infinity

    def test_gue_observables_swapped_sides(self):
        # C = ||[A(t), B]||_F^2 / 2 against Tr[A^2 B^2] - Tr[ABAB] on full
        # matrices, with A in subsystem 2 and B in subsystem 1
        N = 5
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=0.3))
        A0 = embed(gue_observable(N, 21), "right", N)
        B0 = embed(gue_observable(N, 22), "left", N)
        series = otoc_series_dense(F, A0, B0, T=6)
        c2, c4 = _brute_force_series(F, A0.dense(), B0.dense(), 6)
        assert np.abs(series.c2 - c2).max() <= 1e-12 * series.c_infinity
        assert np.abs(series.c - (c2 - c4)).max() <= 1e-12 * series.c_infinity

    @pytest.mark.parametrize("N", [6, 9, 12])
    @pytest.mark.parametrize("b_side", ["left", "right"])
    def test_non_diagonal_B_matches_brute_force(self, N, b_side):
        # a GUE factor for B is rotated into its eigenbasis before the
        # weight-matrix traces; either side of the product space
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        a_side = "right" if b_side == "left" else "left"
        A0 = embed(cosine_observable(N, 0.35), a_side, N)
        B0 = embed(gue_observable(N, 40 + N), b_side, N)
        series = otoc_series_dense(F, A0, B0, T=5)
        c2, c4 = _brute_force_series(F, A0.dense(), B0.dense(), 5)
        assert np.abs(series.c2 - c2).max() <= 1e-12 * series.c_infinity
        assert np.abs(series.c - (c2 - c4)).max() <= 1e-12 * series.c_infinity


class TestMirror:
    """kicked_c2_c4 mirrors an A(0) on subsystem 2 onto subsystem 1: the
    kicks swap U1 and U2 and transpose the interaction, and B0 changes
    side."""

    @pytest.mark.parametrize("b_side", ["left", "right"])
    @pytest.mark.parametrize("kind", ["cosine", "gue"])
    @pytest.mark.parametrize("Nb", [0.0, 1.5])
    def test_right_A_is_the_left_A_with_the_kicks_swapped(self, Nb, kind, b_side):
        # the rotor's interaction depends on n1 + n2 only, so d^T = d, and
        # swapping K1 and K2 swaps U1 and U2
        N = 8
        if kind == "cosine":
            oa = ob = cosine_observable(N, 0.35)
        else:
            oa, ob = gue_observable(N, 3), gue_observable(N, 4)
        other = "right" if b_side == "left" else "left"
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=Nb / N))
        F_swapped = coupled_floquet(SystemParams(N=N, K1=10.0, K2=9.0, b=Nb / N))
        right = otoc_series_dense(F, embed(oa, "right", N), embed(ob, b_side, N), T=5)
        left = otoc_series_dense(F_swapped, embed(oa, "left", N), embed(ob, other, N), T=5)
        assert np.array_equal(right.c2, left.c2)
        assert np.array_equal(right.c4, left.c4)

    @pytest.mark.parametrize("a_side", ["left", "right"])
    def test_first_two_kicks_skip_the_general_route(
        self, a_side, general_route_calls, inner_route_calls
    ):
        N = 6
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=1.5 / N))
        o = cosine_observable(N, 0.35)
        b_side = "right" if a_side == "left" else "left"
        otoc_series_dense(F, embed(o, a_side, N), embed(o, b_side, N), T=6)
        assert len(general_route_calls) == 3  # kicks 3 to 5
        assert len(inner_route_calls) == 1  # kick 6


class TestLastKickInnerRoute:
    """The last kick applies only I x U2 when B0 is a diagonal factor on
    subsystem 2 after the mirror; the traces cannot tell."""

    @pytest.mark.parametrize("a_side", ["left", "right"])
    @pytest.mark.parametrize("Nb", [0.0, 2.0])
    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    @pytest.mark.parametrize("N", [6, 9, 12])
    def test_cosine_pair_matches_brute_force(self, N, T, Nb, a_side):
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=Nb / N))
        o = cosine_observable(N, 0.35)
        b_side = "right" if a_side == "left" else "left"
        A0, B0 = embed(o, a_side, N), embed(o, b_side, N)
        series = otoc_series_dense(F, A0, B0, T=T)
        c2, c4 = _brute_force_series(F, A0.dense(), B0.dense(), T)
        assert np.abs(series.c2 - c2).max() <= 1e-12 * series.c_infinity
        assert np.abs(series.c4 - c4).max() <= 1e-12 * series.c_infinity

    def test_rmt_realization_matches_brute_force(self, inner_route_calls):
        N = 6
        spec = RmtEnsembleSpec(N=N, epsilon=0.3, T=4, samples=1, rng_seed=5)
        o = cosine_observable(N, 0.35)
        A0, B0 = embed(o, "left", N), embed(o, "right", N)
        c2, c4 = rmt._sample_c2_c4(spec, A0, B0, 0)
        assert len(inner_route_calls) == 1
        A, B = A0.dense(), B0.dense()
        want = [(np.trace(A @ A @ B @ B).real, np.trace(A @ B @ A @ B).real)]
        for U1, U2, d in rmt._sampled_kicks(spec, task_rng(spec.rng_seed, 0)):
            U = np.kron(U1, U2) * d
            A = U.conj().T @ A @ U
            want.append((np.trace(A @ A @ B @ B).real, np.trace(A @ B @ A @ B).real))
        want = np.array(want)
        c_inf = saturation_value(o, o)
        assert np.abs(c2 - want[:, 0]).max() <= 1e-12 * c_inf
        assert np.abs(c4 - want[:, 1]).max() <= 1e-12 * c_inf

    @pytest.mark.parametrize("a_side", ["left", "right"])
    @pytest.mark.parametrize("pair", ["gue_b", "same_subsystem"])
    def test_other_pairs_keep_the_full_last_kick(
        self, pair, a_side, general_route_calls, inner_route_calls
    ):
        # D does not commute with a non-diagonal B, and a B on subsystem 1
        # does not commute with U1 x I
        N, T = 6, 5
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        other = "right" if a_side == "left" else "left"
        if pair == "gue_b":
            B0 = embed(gue_observable(N, 9), other, N)
        else:
            B0 = embed(cosine_observable(N, 0.35), a_side, N)
        otoc_series_dense(F, embed(cosine_observable(N, 0.35), a_side, N), B0, T=T)
        assert len(general_route_calls) == T - 2
        assert not inner_route_calls


class TestTwoBuffers:
    @pytest.mark.parametrize("a_side", ["left", "right"])
    def test_series_holds_two_operators(self, a_side):
        # A(t) and the kick's scratch; the traces add 1/N of an operator, and
        # the structured kicks of t = 1, 2 keep their stacks in the scratch
        N = 24
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        o = cosine_observable(N, 0.35)
        b_side = "right" if a_side == "left" else "left"
        A0, B0 = embed(o, a_side, N), embed(o, b_side, N)
        tracemalloc.start()
        try:
            otoc_series_dense(F, A0, B0, T=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 16 * N**4

    def test_series_holds_one_operator_and_scratch(self):
        # from N = 39 on the kick's scratch is a fixed KICK_SCRATCH_BYTES, less
        # than an operator; the traces add 1/N of one.  T = 3 ends on the
        # inner-only kick
        N = 48
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        o = cosine_observable(N, 0.35)
        A0, B0 = embed(o, "left", N), embed(o, "right", N)
        op_bytes = 16 * N**4
        for T in (2, 3):
            tracemalloc.start()
            try:
                otoc_series_dense(F, A0, B0, T=T)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= op_bytes + KICK_SCRATCH_BYTES + 0.1 * op_bytes, T


class TestKickInvariants:
    def test_non_unitary_propagator_raises(self, small_system):
        F, A0, B0 = small_system
        leaky = dataclasses.replace(
            F, U1=OperatorMatrix(1.000001 * F.U1.entries)
        )
        with pytest.raises(FloatingPointError, match="drifted"):
            otoc_series_dense(leaky, A0, B0, T=2)

    def test_non_finite_propagator_raises(self, small_system):
        # a NaN drift compares False against the tolerance; it must still fail
        F, A0, B0 = small_system
        broken = dataclasses.replace(F, Ub_diag=np.full_like(F.Ub_diag, np.nan))
        with pytest.raises(FloatingPointError, match="drifted by nan"):
            otoc_series_dense(broken, A0, B0, T=2)

    def test_hermiticity_survives_forty_kicks(self):
        N = 16
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        m = embed(gue_observable(N, 11), "left", N).dense()
        work = np.empty(N**4, complex)
        for _ in range(40):
            kron_conjugate(F.U1.entries, F.U2.entries, m, work, F.Ub_diag)
        assert np.abs(m - m.conj().T).max() <= 1e-12 * np.abs(m).max()

    def test_requires_hermitian_observables(self, small_system):
        F, A0, B0 = small_system
        general = embed(OperatorMatrix(np.triu(np.ones((5, 5)))), "left", 5)
        with pytest.raises(ValueError, match="Hermitian"):
            otoc_series_dense(F, general, B0, T=1)


def _dense_series_n91():
    N = 91
    F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=1 / N))
    o = cosine_observable(N, 0.35)
    otoc_series_dense(F, embed(o, "left", N), embed(o, "right", N), 1)


def _rmt_series_n91():
    o = cosine_observable(91, 0.35)
    rmt_otoc_mc(RmtEnsembleSpec(N=91, epsilon=0.1, T=1, samples=1), o, o)


class TestDenseBudget:
    @pytest.mark.parametrize("run", [_dense_series_n91, _rmt_series_n91], ids=["dense", "rmt"])
    def test_refused_before_allocating(self, run):
        # N^2 = 8281 exceeds the budget; one such complex matrix is 1.1 GB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="path=stochastic"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestSameSubspace:
    def test_matches_brute_force(self):
        N = 4
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=0.3))
        o1 = cosine_observable(N, 0.35)
        o2 = gue_observable(N, 11)
        series = otoc_series_dense(F, embed(o1, "left", N), embed(o2, "left", N), T=4)
        A0 = np.kron(o1.entries, np.eye(N))
        B0 = np.kron(o2.entries, np.eye(N))
        c2, c4 = _brute_force_series(F, A0, B0, 4)
        assert np.allclose(series.c2, c2, atol=1e-8)
        assert np.allclose(series.c4, c4, atol=1e-8)

    def test_nonzero_at_t0(self):
        # same-subsystem observables need not commute at t = 0
        N = 4
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=0.3))
        o1, o2 = gue_observable(N, 1), gue_observable(N, 2)
        series = otoc_series_dense(F, embed(o1, "left", N), embed(o2, "left", N), T=1)
        assert abs(series.c[0]) > 1e-6


class TestStochasticSeries:
    def test_matches_dense_within_errors(self, small_system):
        F, A0, B0 = small_system
        dense = otoc_series_dense(F, A0, B0, T=5)
        rng = np.random.default_rng(12345)
        stoch = otoc_series_stochastic(F, A0, B0, T=5, probes=96, rng=rng)
        for t in range(6):
            band = 4.0 * max(stoch.c_err[t], 1e-12)
            assert abs(stoch.c[t] - dense.c[t]) <= band + 1e-9

    def test_same_subspace_matches_dense_within_errors(self):
        # both cosine observables in subsystem 1, as the same_subspace scenario
        N, T, probes, seed = 8, 6, 256, 3
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=0.3))
        o = cosine_observable(N, 0.35)
        A0, B0 = embed(o, "left", N), embed(o, "left", N)
        dense = otoc_series_dense(F, A0, B0, T)
        stoch = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(seed))
        band = 4.0 * np.maximum(stoch.c_err, 1e-12)
        assert np.all(np.abs(stoch.c - dense.c) <= band + 1e-9)

    def test_probe_floor(self, small_system):
        F, A0, B0 = small_system
        with pytest.raises(ValueError):
            otoc_series_stochastic(F, A0, B0, T=1, probes=4, rng=np.random.default_rng(0))

    def test_reproducible(self, small_system):
        F, A0, B0 = small_system
        a = otoc_series_stochastic(F, A0, B0, 3, 32, np.random.default_rng(7))
        b = otoc_series_stochastic(F, A0, B0, 3, 32, np.random.default_rng(7))
        assert np.array_equal(a.c2, b.c2) and np.array_equal(a.c4, b.c4)


class TestCommutatorIdentity:
    """C = C2 - C4 is half a squared norm on every path, so C >= 0 holds at
    every t, also where the exact C is zero and only roundoff is left."""

    @pytest.mark.parametrize("N", [6, 8, 10, 12])
    @pytest.mark.parametrize("kind", ["cosine", "gue"])
    def test_c_is_nonnegative(self, N, kind):
        F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
        if kind == "cosine":
            o1 = o2 = cosine_observable(N, 0.35)
        else:
            o1, o2 = gue_observable(N, 1), gue_observable(N, 2)
        A0, B0 = embed(o1, "left", N), embed(o2, "right", N)
        dense = otoc_series_dense(F, A0, B0, T=12)
        stoch = otoc_series_stochastic(F, A0, B0, 12, 32, np.random.default_rng(N))
        assert np.all(dense.c >= 0)
        assert np.all(stoch.c >= 0)


def _all_at_once_stochastic(F, A0, B0, T, probes, rng):
    """The probe estimator with every probe in one (N, probes, N) block and
    U^t z rebuilt from z at every t: 2T(T+1) Floquet applications per probe,
    and every observable factor applied as a gemm, diagonal or not.
    The oracle for the blocked, incremental path.  Probe p is the p-th
    N^2 draws of ``rng``."""
    a, b = (A0.op.entries, A0.side), (B0.op.entries, B0.side)
    Z = np.exp(2j * np.pi * rng.random((probes, F.N, F.N)).transpose(1, 0, 2))

    def heisenberg_apply(batch, t):
        out = batch
        for _ in range(t):
            out = apply_floquet(F, out, "forward")
        out = apply_local(out, *a)
        for _ in range(t):
            out = apply_floquet(F, out, "adjoint")
        return out

    def norms(y):
        x = y.view(np.float64)
        return np.einsum("ipj,ipj->p", x, x)

    c2, c4, c_err = [], [], []
    for t in range(T + 1):
        y = heisenberg_apply(apply_local(Z, *b), t)
        e2 = norms(y)
        y -= apply_local(heisenberg_apply(Z, t), *b)
        e = 0.5 * norms(y)
        c2.append(e2.mean())
        c4.append(e2.mean() - e.mean())
        c_err.append(e.std(ddof=1) / np.sqrt(probes))
    return np.array(c2), np.array(c4), np.array(c_err)


def _rotor_pair(N, kind, b_side):
    F = coupled_floquet(SystemParams(N=N, K1=9.0, K2=10.0, b=2 / N))
    if kind == "cosine":
        o1 = o2 = cosine_observable(N, 0.35)
    else:
        o1, o2 = gue_observable(N, 1), gue_observable(N, 2)
    return F, embed(o1, "left", N), embed(o2, b_side, N)


def _assert_same_estimates(got, want):
    """c2, c4 and c_err agree to 1e-12 of each one's largest |value|."""
    for name in ("c2", "c4", "c_err"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


class TestProbeBlocks:
    """The stochastic series runs PROBE_BLOCK probes at a time and advances
    U^t z and U^t B z by one kick per step."""

    @pytest.mark.parametrize("probes", [16, 37, 3 * PROBE_BLOCK + 5])
    @pytest.mark.parametrize("N", [6, 12])
    @pytest.mark.parametrize("b_side", ["right", "left"])
    @pytest.mark.parametrize("kind", ["cosine", "gue"])
    def test_bit_identical_to_all_at_once(self, kind, b_side, N, probes):
        F, A0, B0 = _rotor_pair(N, kind, b_side)
        T = 5
        series = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(N + probes))
        c2, c4, c_err = _all_at_once_stochastic(
            F, A0, B0, T, probes, np.random.default_rng(N + probes)
        )
        assert np.array_equal(series.c2, c2)
        assert np.array_equal(series.c4, c4)
        assert np.array_equal(series.c_err, c_err)

    @pytest.mark.parametrize("probes", [PROBE_BLOCK, 2 * PROBE_BLOCK + 5])
    @pytest.mark.parametrize("T", [2, 4])
    def test_floquet_applications(self, monkeypatch, T, probes):
        # T(T+3) per block: 2T forward, T(T+1) adjoint; all at once
        # recomputing U^t z at every t takes 2T(T+1)
        F, A0, B0 = _rotor_pair(6, "cosine", "right")
        calls = []

        def counted(F, psi, direction, out=None):
            calls.append(direction)
            return apply_floquet(F, psi, direction, out=out)

        monkeypatch.setattr(otoc, "apply_floquet", counted)
        otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(0))
        blocks = -(-probes // PROBE_BLOCK)
        assert len(calls) == blocks * T * (T + 3)
        assert calls.count("forward") == blocks * 2 * T

    @pytest.mark.parametrize("width", [7, 64])
    @pytest.mark.parametrize("N", [6, 16])
    def test_block_width_moves_no_number(self, monkeypatch, N, width):
        # every block draws its own probes from one stream, probe-major
        F, A0, B0 = _rotor_pair(N, "gue", "right")
        T, probes = 5, 3 * PROBE_BLOCK + 5
        want = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(N))
        monkeypatch.setattr(otoc, "PROBE_BLOCK", width)
        got = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(N))
        _assert_same_estimates(got, want)

    def test_peak_is_independent_of_the_probe_count(self):
        N, T = 16, 3
        F, A0, B0 = _rotor_pair(N, "cosine", "right")
        peaks = {}
        for probes in (2 * PROBE_BLOCK, 16 * PROBE_BLOCK):
            tracemalloc.start()
            try:
                otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(1))
                peaks[probes] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # five blocks are allocated, and the probes are drawn into one
            block_bytes = 16 * N**2 * PROBE_BLOCK
            results_bytes = 2 * 8 * (T + 1) * probes
            assert peaks[probes] < 7 * block_bytes + results_bytes
        few, many = peaks.values()
        assert abs(many / few - 1) < 0.1, peaks


class TestProbeBudget:
    """The five probe blocks, 80 N^2 k bytes, are capped by the budget."""

    def test_small_budget_narrows_the_blocks(self, monkeypatch):
        N, T, probes = 16, 4, 3 * PROBE_BLOCK + 5
        F, A0, B0 = _rotor_pair(N, "gue", "right")
        want = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(3))
        # room for seven probes a block
        monkeypatch.setattr(operators, "DENSE_BUDGET_BYTES", 7 * 80 * N**2 + 80)
        assert operators.probe_block_width(N, PROBE_BLOCK) == 7
        got = otoc_series_stochastic(F, A0, B0, T, probes, np.random.default_rng(3))
        _assert_same_estimates(got, want)

    def test_refused_before_allocating(self, monkeypatch):
        N = 16
        F, A0, B0 = _rotor_pair(N, "cosine", "right")
        monkeypatch.setattr(operators, "DENSE_BUDGET_BYTES", 80 * N**2 - 1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match=f"needs {80 * N**2} bytes"):
                otoc_series_stochastic(F, A0, B0, 2, 32, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * N**2 * PROBE_BLOCK  # not one block
        assert rng.bit_generator.state == state  # nothing was drawn


def _synthetic_series(times, c_norm, c_inf=1024.0):
    c = np.asarray(c_norm) * c_inf
    return OtocSeries(
        times=np.asarray(times),
        c2=np.full_like(c, c_inf),
        c4=c_inf - c,
        c_infinity=c_inf,
    )


class TestFitWindows:
    def test_default_lyapunov_window_skips_zeros(self):
        # C(0) = C(1) = 0, growth from t = 2
        series = _synthetic_series(
            np.arange(7), [0, 0, 1e-6, 1e-4, 1e-2, 0.3, 0.8]
        )
        assert default_lyapunov_window(series) == (2, 4)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_default_lyapunov_window_ignores_roundoff(self, sign):
        # C(1) is zero up to roundoff of either sign; growth from t = 2
        t = np.arange(7)
        c_inf = 1024.0
        c = np.array([0, sign * 1e-16, 1e-6, 1e-4, 1e-2, 0.3, 0.8]) * c_inf
        series = OtocSeries(times=t, c2=c, c4=np.zeros_like(c), c_infinity=c_inf)
        assert default_lyapunov_window(series) == (2, 4)

    def test_lyapunov_fit_recovers_slope(self):
        t = np.arange(7)
        rate = 2.3
        c_norm = np.where(t >= 1, 1e-8 * np.exp(rate * t), 0.0)
        series = _synthetic_series(t, c_norm)
        fit = fit_lyapunov_phase(series, window=(1, 4))
        assert fit.slope == pytest.approx(rate, rel=1e-10)

    def test_lyapunov_rejects_nonpositive(self):
        series = _synthetic_series(np.arange(5), [0, 0, 0, 1e-3, 1e-2])
        with pytest.raises(ValueError):
            fit_lyapunov_phase(series, window=(1, 3))

    def test_relaxation_fit_recovers_mu(self):
        t = np.arange(20)
        mu = 0.17
        series = _synthetic_series(t, 1.0 - np.exp(-mu * t))
        fit = fit_relaxation_phase(series, t_ef=2.6)
        assert fit.slope == pytest.approx(-mu, rel=1e-10)
        assert fit.window[0] == 4  # ceil(2.6) + 1

    def test_relaxation_window_stops_at_saturation(self):
        t = np.arange(10)
        gap = np.maximum(np.exp(-1.5 * t), 0.0)
        gap[7:] = 0.0  # fully saturated tail
        series = _synthetic_series(t, 1.0 - gap)
        window = default_relaxation_window(series, t_ef=1.0)
        assert window == (2, 6)

    def test_relaxation_needs_enough_points(self):
        series = _synthetic_series(np.arange(4), [0.0, 0.5, 1.0, 1.0])
        with pytest.raises(ValueError):
            default_relaxation_window(series, t_ef=1.0)
