"""Infinite-temperature OTOC of the coupled rotors and its two-phase fits.

C(t) = C2(t) - C4(t) with C2 = Tr[A(t)^2 B^2] and C4 = Tr[A(t) B A(t) B];
A evolves in the Heisenberg picture, one kick per step.  For Hermitian A(t)
and B every path evaluates C2 = ||A(t) B S||_F^2 and C = ||[A(t), B] S||_F^2
/ 2, so C >= 0 by construction, and C4 = C2 - C.  The dense path takes S = I
and conjugates the full product-space A in place, through the Kronecker
structure of the propagator, in one call of
:func:`otoclab.bipartite.kron_conjugate` per step.  The OTOC is unchanged
when the subsystems swap, so an A(0) on subsystem 2 is mirrored once onto
subsystem 1.  The local A(0) = O x I stays exactly zero off its
block-diagonal pattern for one kick, so the first kick is an O(N^3) write
onto that pattern and the second one N^5 gemm pass, each after one O(N^4)
count of A's nonzeros; from the third on a step is two blocked passes of
2 N^5 through a scratch of at most KICK_SCRATCH_BYTES, with the diagonal
interaction applied inside their products.  When B = I x O with a diagonal
O, as for the cosine pair and the RMT model, U1 x I and the interaction
commute with B, so the last of those kicks applies only I x U2, 2 N^5.  It
holds one operator of memory plus that scratch and an N^3 factor stack.
Its traces take one O(N^4) pass: for B = I x O or O x I, O = V diag(lam)
V^dag, W[a, b] sums |A(t)|^2 in O's eigenbasis over the other subsystem's
row and column index; then C2 = <W, lam_b^2>, C = <W, (lam_a - lam_b)^2> / 2
and ||A(t)||_F^2 = sum W.  The stochastic path takes for S a block Z of
random-phase probe vectors, E[Z Z^dag] = I, and builds no product-space
matrix: it propagates up to PROBE_BLOCK probes at a time, each block an
(N, k, N) array to which every Floquet and observable factor is one
:func:`otoclab.bipartite.apply_local` on its side: one 2-D gemm, or one
elementwise product for a diagonal observable factor, in T(T+3) O(N^3)
Floquet applications per probe over T kicks.  Each block
draws its own probes when it starts, so Z is never whole: whatever the
probe count, the series holds five blocks, 80 N^2 k bytes allocated once,
within the budget of :func:`otoclab.operators.probe_block_width`.
Observables are subsystem factors from :func:`otoclab.operators.embed`;
C_inf is :func:`saturation_value` of them.
Both paths take either side for either observable: A = O1 x I against
B = I x O2 is the bipartite OTOC, and B = O2 x I the same-subsystem one.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import j0

from . import bipartite
from .kicked_rotor import apply_floquet
from .operators import Embedded, kick_scratch_bytes, probe_block_width

# First zero of the Bessel function J0; mu(b) diverges there.
_J0_FIRST_ZERO = 2.404825557695773

# Relative scale below which 1 - C/C_inf is considered saturated on the
# dense path (exact traces, double precision).
DENSE_NOISE_FLOOR = 1e-10

# C(t) at or below this multiple of C_inf is roundoff, not growth.
LYAPUNOV_FLOOR = 1e-12

# Largest relative drift of ||A(t)||_F that a unitary kick may show.
NORM_DRIFT_TOL = 1e-10

# Probe vectors propagated together on the stochastic path, unless the
# budget allows fewer.
PROBE_BLOCK = 32


@dataclass
class OtocSeries:
    """Time series of the correlators, plus an optional Monte Carlo error of C."""

    times: np.ndarray
    c2: np.ndarray
    c4: np.ndarray
    c_infinity: float
    meta: dict = field(default_factory=dict)
    c_err: np.ndarray = None

    @property
    def c(self):
        return self.c2 - self.c4

    @property
    def c_norm(self):
        return self.c / self.c_infinity


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    slope_stderr: float
    window: tuple


def linear_fit(x, y):
    """Least squares line with the usual residual-based slope error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = np.polyfit(x, y, 1)
    if len(x) > 2:
        resid = y - (slope * x + intercept)
        sigma = np.sqrt(np.sum(resid**2) / (len(x) - 2))
        stderr = sigma / np.sqrt(np.sum((x - x.mean()) ** 2))
    else:
        stderr = 0.0
    return slope, intercept, stderr


def saturation_value(O1, O2):
    """C_inf = Tr(O1^2) Tr(O2^2) for the subsystem observables."""
    for op in (O1, O2):
        if np.abs(op.entries - op.entries.conj().T).max() > 1e-10:
            raise ValueError("saturation value expects Hermitian observables")
    return float(
        np.sum(np.abs(O1.entries) ** 2) * np.sum(np.abs(O2.entries) ** 2)
    )


def mu_standard_map(N, b):
    """Relaxation rate ln|J0(N b / 2 pi)|^-4 of the coupled standard map."""
    x = N * b / (2 * np.pi)
    if x < 0 or x >= _J0_FIRST_ZERO:
        raise ValueError(
            f"N*b/(2 pi) = {x:.4f} is at or beyond the first zero of J0"
        )
    return float(-4.0 * np.log(np.abs(j0(x))))


def ehrenfest_time(N, K):
    """t_EF = ln N / ln(K/2); K is the kick strength setting the subsystem
    Lyapunov exponent (the larger kick, in the two-rotor runs)."""
    if K <= 2:
        raise ValueError("Ehrenfest estimate needs K > 2")
    return math.log(N) / math.log(K / 2)


def _check_norm(norm, norm0, t):
    """A unitary kick conserves ||A||_F; a drift means a non-unitary
    propagator or lost precision, and is an error rather than noise.  A NaN
    drift, from a non-finite propagator, fails too."""
    drift = abs(norm / norm0 - 1.0)
    if not drift <= NORM_DRIFT_TOL:
        raise FloatingPointError(
            f"||A(t)||_F drifted by {drift:.2e} relative at t={t}; "
            "the propagator is not unitary to working precision"
        )


def _check_embedded(N, *observables):
    for obs in observables:
        if not isinstance(obs, Embedded):
            raise ValueError("observables must be embedded subsystem observables")
        if (obs.op.dim, obs.n_other) != (N, N):
            raise ValueError("observables must live on the product space")


def _traces(A, side, lam, v):
    """C2, C4 and ||A||_F from the weight matrix W of the module docstring,
    reduced in row blocks of the other subsystem, 1/N of the operator each.
    B0's factor, on ``side``, has eigenvalues lam and eigenvector matrix v,
    None for a diagonal factor.  W >= 0, so C >= 0."""
    n = len(lam)
    k = 0 if side == "left" else 1  # B0's subsystem
    # one reduction per block over its float64 view (n, n, 2n): B0's row
    # index, the outer column index, and the inner one as (real, imag) pairs
    subscripts = "ijk,ijk->ij" if k == 0 else "ijk,ijk->ik"
    W = np.zeros((n, n) if k == 0 else (n, 2 * n))
    for block in np.moveaxis(A.reshape(n, n, n, n), 1 - k, 0):
        block = block.reshape(n, n * n)  # rows: B0's row index
        if v is not None:
            block = bipartite.right_multiply_embedded(v.conj().T @ block, v, side)
        x = block.view(np.float64).reshape(n, n, 2 * n)
        W += np.einsum(subscripts, x, x)
    if k == 1:
        W = W[:, 0::2] + W[:, 1::2]
    c2 = float(bipartite.trace_product(W, np.broadcast_to(lam**2, W.shape)))
    c = 0.5 * float(bipartite.trace_product(W, (lam[:, None] - lam) ** 2))
    return c2, c2 - c, math.sqrt(W.sum())


def kicked_c2_c4(A0, B0, kicks):
    """C2(t) and C4(t) of the embedded Hermitian A(0) against the embedded B0.

    ``kicks`` yields one ``(U1, U2, d)`` per step; a step takes A to
    D^dag (U1 x U2)^dag A (U1 x U2) D with D = diag(d) in one
    :func:`otoclab.bipartite.kron_conjugate`, in place in A(0) =
    ``A0.dense()``, through a flat scratch of min(16 dim^2,
    KICK_SCRATCH_BYTES) bytes: the whole operator up to N = 32, 1/8 of it at
    N = 64.  An A0 on subsystem 2 is mirrored once, which leaves C2 and C4
    unchanged: A0 to subsystem 1, B0 to the other side, each kick to
    (U2, U1, d^T) with d as (N, N).  The kicks then take the routes of
    ``kron_conjugate`` from A(0) = O x I.  ``kicks`` is read one kick ahead,
    which leaves the order in which a generator draws its kicks unchanged.
    When B0 is then a diagonal factor on subsystem 2, the last kick asks
    ``kron_conjugate`` for its inner-only route, (I x U2)^dag A (I x U2),
    which leaves C2 and C4 as the full kick would, since U1 x I and D
    commute with B0; the A left behind is not A(T).  Returns two arrays for
    t = 0 .. number of kicks.  Every kick checks that ||A(t)||_F stays at
    ||A(0)||_F; on an inner-only last kick that covers I x U2 alone.  The
    rotor's U1 and D are checked by kicks 1 and 2, which never take that
    route, and the RMT model's U1 is a Haar draw.
    """
    if A0.side == "right":
        A0 = replace(A0, side="left")
        B0 = replace(B0, side="left" if B0.side == "right" else "right")
        kicks = ((U2, U1, d.reshape(len(U1), -1).T.ravel()) for U1, U2, d in kicks)
    A = A0.dense()
    work = np.empty(kick_scratch_bytes(A0.dim) // 16, complex)
    if B0.diagonal is not None:
        lam, v = B0.diagonal.real, None
    else:  # rotate the traces into O's eigenbasis
        lam, v = np.linalg.eigh(B0.op.entries)
    # U1 x I and D commute with B = I x diag(lam), so the traces of the last
    # kick see only I x U2
    inner = v is None and B0.side == "right"
    c2, c4, norm0 = _traces(A, B0.side, lam, v)
    c2s, c4s = [c2], [c4]
    kicks = iter(kicks)
    kick = next(kicks, None)
    t = 0
    while kick is not None:
        U1, U2, d = kick
        kick = next(kicks, None)  # one ahead, to know the last kick
        t += 1
        bipartite.kron_conjugate(U1, U2, A, work, d, inner_only=inner and kick is None)
        c2, c4, norm = _traces(A, B0.side, lam, v)
        _check_norm(norm, norm0, t)
        c2s.append(c2)
        c4s.append(c4)
    return np.array(c2s), np.array(c4s)


def otoc_series_dense(F, A0, B0, T, meta=None):
    """Exact-trace OTOC series for Hermitian observables A0, B0.

    Both come from :func:`otoclab.operators.embed`.  A(t) is the one dense
    N^2 x N^2 matrix; with the kick's scratch of at most KICK_SCRATCH_BYTES
    it is within the budget.  The traces use B0's local factor.
    """
    _check_embedded(F.N, A0, B0)
    c_inf = saturation_value(A0.op, B0.op)
    kick = (F.U1.entries, F.U2.entries, F.Ub_diag)
    c2, c4 = kicked_c2_c4(A0, B0, itertools.repeat(kick, T))
    info = {"params": F.params, "path": "dense"}
    info.update(meta or {})
    return OtocSeries(
        times=np.arange(T + 1), c2=c2, c4=c4, c_infinity=c_inf, meta=info
    )


def _probe_norms(y):
    """||y_p||^2 for each probe p of an (N, k, N) block, summed over the
    block's float64 view, so no conjugate copy is formed."""
    x = y.view(np.float64)
    return np.einsum("ipj,ipj->p", x, x)


def otoc_series_stochastic(F, A0, B0, T, probes, rng, meta=None):
    """Random-phase trace estimation of the OTOC for large N.

    Uses unit-modulus probe vectors z with E[z z^dag] = I: per probe,
    ||A(t) B z||^2 and ||A(t) B z - B A(t) z||^2 / 2 are unbiased estimates
    of C2 and C, and ``c_err`` is the standard error of the latter.  A0 and
    B0 come from :func:`otoclab.operators.embed` and are applied through
    their N x N factors.

    The probes run k at a time, k = PROBE_BLOCK unless the budget of
    :func:`otoclab.operators.probe_block_width` allows fewer, each block an
    (N, k, N) array (see :mod:`otoclab.bipartite`), so every Floquet factor
    is one 2-D gemm over the block; the observables go through
    :meth:`otoclab.operators.Embedded.apply`, one gemm, or one elementwise
    product for a diagonal factor such as the cosine.  Per block, f = U^t B z
    and g = U^t z advance by one forward kick per step, and A f and A g go
    back by t adjoint kicks: T(T+3) Floquet applications per probe over the
    series.
    Probe p is z = exp(2 pi i u) for the N^2 draws p N^2 .. (p + 1) N^2 - 1
    of ``rng``, in the layout of a length-N^2 vector.  Each block draws its
    own probes when it starts, into the scratch, so the series takes the
    same numbers from ``rng`` whatever k is.  The five blocks g, f, y, w and
    the scratch, 80 N^2 k bytes, are allocated once per series; every
    application writes into one of them, and nothing else grows with the
    probe count but the (T + 1) x probes estimates.
    """
    if probes < 16:
        raise ValueError("need at least 16 probe vectors")
    N = F.N
    _check_embedded(N, A0, B0)
    c_inf = saturation_value(A0.op, B0.op)
    width = probe_block_width(N, min(PROBE_BLOCK, probes))
    buffers = np.empty((5, N * width * N), complex)

    def back_propagate(x, spare, t):
        for _ in range(t):
            x, spare = apply_floquet(F, x, "adjoint", out=spare), x
        return x, spare

    e2 = np.empty((T + 1, probes))
    e = np.empty((T + 1, probes))
    for start in range(0, probes, width):
        cols = slice(start, start + width)
        k = min(width, probes - start)
        g, f, y, w, s = (buf[:N * k * N].reshape(N, k, N) for buf in buffers)
        # the block's phases u, probe-major, in the scratch's float64 view
        u = rng.random(out=buffers[4].view(np.float64)[:k * N * N].reshape(k, N, N))
        np.multiply(u.transpose(1, 0, 2), 2j * np.pi, out=g)
        np.exp(g, out=g)
        B0.apply(g, out=f)
        for t in range(T + 1):
            if t:
                f, s = apply_floquet(F, f, "forward", out=s), f
                g, s = apply_floquet(F, g, "forward", out=s), g
            A0.apply(f, out=y)
            y, w = back_propagate(y, w, t)  # A(t) B z
            e2[t, cols] = _probe_norms(y)
            A0.apply(g, out=w)
            w, s = back_propagate(w, s, t)  # A(t) z
            y -= B0.apply(w, out=s)
            e[t, cols] = 0.5 * _probe_norms(y)
    c2 = e2.mean(axis=1)
    info = {"params": F.params, "path": "stochastic", "probes": probes}
    info.update(meta or {})
    return OtocSeries(
        times=np.arange(T + 1),
        c2=c2,
        c4=c2 - e.mean(axis=1),
        c_infinity=c_inf,
        meta=info,
        c_err=e.std(axis=1, ddof=1) / np.sqrt(probes),
    )


def default_lyapunov_window(series):
    """First three kicks from the first C(t) above the roundoff floor.

    C(0) = 0 for disjoint observables, and C(1) is zero up to roundoff when
    both observables are diagonal in the interaction basis.  Only points
    above LYAPUNOV_FLOOR * C_inf count, so the sign of that roundoff cannot
    move the window.
    """
    c = series.c
    pos = np.flatnonzero(
        (series.times > 0) & (c > LYAPUNOV_FLOOR * series.c_infinity)
    )
    if len(pos) < 3:
        raise ValueError("series has fewer than three points above the roundoff floor")
    t0 = series.times[pos[0]]
    return (int(t0), int(t0) + 2)


def _log_linear_fit(times, y, window, nonpositive_error):
    """Slope of ln y(t) over the closed window, at least three points; the
    window may not end past the last time of the series."""
    t_min, t_max = window
    if t_max > times[-1]:
        raise ValueError(
            f"fit window ({t_min}, {t_max}) ends past the last kick T = {times[-1]}"
        )
    mask = (times >= t_min) & (times <= t_max)
    if mask.sum() < 3:
        raise ValueError("fit window must contain at least three points")
    y = y[mask]
    if np.any(y <= 0):
        raise ValueError(nonpositive_error)
    slope, intercept, stderr = linear_fit(times[mask], np.log(y))
    return FitResult(slope, intercept, stderr, (int(t_min), int(t_max)))


def fit_lyapunov_phase(series, window=None):
    """Slope of ln C(t) in the growth phase; estimates 2 lambda_L."""
    if window is None:
        window = default_lyapunov_window(series)
    return _log_linear_fit(
        series.times, series.c, window, "fit window contains nonpositive C(t)"
    )


def relaxation_noise_floor(series):
    if series.c_err is not None:
        return float(max(series.c_err[-1] / series.c_infinity, DENSE_NOISE_FLOOR))
    return DENSE_NOISE_FLOOR


def unsaturated_points(times, gap, t_ef, floor):
    """Indices of the kicks from ceil(t_ef) + 1 on whose gap lies above floor;
    at least three, or ValueError."""
    good = np.flatnonzero((times >= int(np.ceil(t_ef)) + 1) & (gap > floor))
    if len(good) < 3:
        raise ValueError("fewer than three unsaturated points past the Ehrenfest time")
    return good


def default_relaxation_window(series, t_ef=None):
    """From just past the Ehrenfest time to the last unsaturated point."""
    if t_ef is None:
        p = series.meta.get("params")
        if p is None:
            raise ValueError("series carries no params; pass t_ef explicitly")
        t_ef = ehrenfest_time(p.N, max(p.K1, p.K2))
    floor = 10.0 * relaxation_noise_floor(series)
    good = unsaturated_points(series.times, 1.0 - series.c_norm, t_ef, floor)
    return (int(np.ceil(t_ef)) + 1, int(series.times[good[-1]]))


def fit_relaxation_phase(series, window=None, t_ef=None):
    """Slope of ln(1 - C/C_inf) in the second phase; -slope estimates mu."""
    if window is None:
        window = default_relaxation_window(series, t_ef)
    return _log_linear_fit(
        series.times, 1.0 - series.c_norm, window,
        "fit window contains saturated points (1 - C/C_inf <= 0)",
    )
