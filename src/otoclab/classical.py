"""Classical coupled standard map, tangent dynamics and Lyapunov estimate.

State ordering is (p1, q1, p2, q2) on the unit 4-torus.  One period is
kick-then-drift:

    p_j' = p_j + (K_j/2pi) sin(2 pi q_j) + (b/2pi) sin(2 pi (q1+q2))  mod 1
    q_j' = q_j + p_j'                                                 mod 1

The Poisson-bracket analogue of the OTOC is
C_cl(t) = sin^2(2 pi q1(t)) sin^2(2 pi q2(0)) (dq1(t)/dp2(0))^2, the cross
derivative read off from the accumulated tangent map.  The ensemble
estimate advances one column of the tangent map, four vectors per ensemble;
the full 4x4 product (``jacobian_step``, ``poisson_otoc``) is its oracle.
"""

from dataclasses import dataclass

import numpy as np

from .otoc import FitResult, linear_fit

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhasePoint:
    p1: float
    q1: float
    p2: float
    q2: float

    def __post_init__(self):
        vals = (self.p1, self.q1, self.p2, self.q2)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("phase-space coordinates must be finite")
        if not all(0.0 <= v < 1.0 for v in vals):
            raise ValueError("phase-space coordinates must lie in [0, 1)")


def _step_arrays(p1, q1, p2, q2, K1, K2, b):
    f12 = (b / _TWO_PI) * np.sin(_TWO_PI * (q1 + q2))
    p1n = (p1 + (K1 / _TWO_PI) * np.sin(_TWO_PI * q1) + f12) % 1.0
    p2n = (p2 + (K2 / _TWO_PI) * np.sin(_TWO_PI * q2) + f12) % 1.0
    q1n = (q1 + p1n) % 1.0
    q2n = (q2 + p2n) % 1.0
    return p1n, q1n, p2n, q2n


def _jacobian_arrays(q1, q2, K1, K2, b):
    """Analytic tangent map at (q1, q2); shape (..., 4, 4), det = 1."""
    shape = np.broadcast(q1, q2).shape
    c12 = b * np.cos(_TWO_PI * (q1 + q2))
    a1 = K1 * np.cos(_TWO_PI * q1) + c12
    a2 = K2 * np.cos(_TWO_PI * q2) + c12
    M = np.zeros(shape + (4, 4))
    M[..., 0, 0] = 1.0
    M[..., 0, 1] = a1
    M[..., 0, 3] = c12
    M[..., 1, 0] = 1.0
    M[..., 1, 1] = 1.0 + a1
    M[..., 1, 3] = c12
    M[..., 2, 2] = 1.0
    M[..., 2, 3] = a2
    M[..., 2, 1] = c12
    M[..., 3, 2] = 1.0
    M[..., 3, 3] = 1.0 + a2
    M[..., 3, 1] = c12
    return M


def _tangent_column_step(v, q1, q2, K1, K2, b):
    """M v for the tangent map M = ``_jacobian_arrays(q1, q2, K1, K2, b)``,
    written out row by row from its nonzero entries."""
    v0, v1, v2, v3 = v
    c12 = b * np.cos(_TWO_PI * (q1 + q2))
    a1 = K1 * np.cos(_TWO_PI * q1) + c12
    a2 = K2 * np.cos(_TWO_PI * q2) + c12
    return (
        v0 + a1 * v1 + c12 * v3,
        v0 + (1.0 + a1) * v1 + c12 * v3,
        c12 * v1 + v2 + a2 * v3,
        c12 * v1 + v2 + (1.0 + a2) * v3,
    )


def map_step(x, K1, K2, b):
    """Advance one phase point by one kick period."""
    p1, q1, p2, q2 = _step_arrays(x.p1, x.q1, x.p2, x.q2, K1, K2, b)
    return PhasePoint(float(p1), float(q1), float(p2), float(q2))


def jacobian_step(x, K1, K2, b):
    """4x4 Jacobian of map_step evaluated at x."""
    return _jacobian_arrays(x.q1, x.q2, K1, K2, b)


def poisson_otoc(x0, K1, K2, b, T):
    """Squared Poisson bracket sequence for t = 0..T (zero at t = 0).

    The tangent matrices are accumulated by left multiplication in kick
    order with running rescaling, so the cross derivative survives far past
    the double-precision overflow horizon.
    """
    if T < 1:
        raise ValueError("need at least one kick")
    p1, q1, p2, q2 = x0.p1, x0.q1, x0.p2, x0.q2
    sin_q2_0_sq = np.sin(_TWO_PI * q2) ** 2
    J = np.eye(4)
    log_scale = 0.0
    out = [0.0]
    for _ in range(T):
        J = _jacobian_arrays(q1, q2, K1, K2, b) @ J
        peak = np.abs(J).max()
        if peak > 1e100:
            J /= peak
            log_scale += np.log(peak)
        p1, q1, p2, q2 = _step_arrays(p1, q1, p2, q2, K1, K2, b)
        # log-domain value; exponentiate only when it cannot overflow
        cross = J[1, 2]
        if cross == 0.0 or sin_q2_0_sq == 0.0:
            out.append(0.0)
            continue
        log_c = (
            np.log(np.sin(_TWO_PI * q1) ** 2 * sin_q2_0_sq)
            + 2.0 * (np.log(np.abs(cross)) + log_scale)
        )
        out.append(float(np.exp(log_c)) if log_c < 700.0 else float("inf"))
    return np.array(out)


def classical_lyapunov(K1, K2, b, ensemble=100_000, fit_window=None, *, rng):
    """Slope of the ensemble-averaged log Poisson bracket; estimates 2 lambda_cl.

    The fit runs over the kicks ``fit_window``, (2, 5) when None; it must
    start at kick 2 or later, because dq1/dp2(0) is identically 0 at t = 1,
    and hold at least three kicks.

    Only v = J e_p2, whose entry v1 is dq1(t)/dp2(0), is advanced: one
    column of the tangent map, four vectors per ensemble.

    Initial conditions are drawn uniform on [0,1)^4 from ``rng``, a numpy
    Generator the caller seeds; there is no unseeded default.  Realizations
    where the bracket vanishes identically inside the window are excluded
    (measure zero up to roundoff); more than 1% exclusions aborts the
    estimate.  Before each kick, a trajectory's v whose largest entry has
    passed 1e100 is divided by that entry and the log of the factor kept, as
    in ``poisson_otoc``, so windows of any length stay finite.  A kick then
    overflows only if it alone stretches v by about 1e54, past what double
    precision resolves; an overflow of the tangent map or C_cl raises,
    naming the kick.
    At b = 0 the tangent map is block-diagonal, so dq1/dp2 vanishes
    identically and the estimate is refused before anything is drawn.
    """
    if ensemble < 1000:
        raise ValueError("ensemble must contain at least 1000 trajectories")
    if b == 0:
        raise ValueError(
            "b = 0 decouples the rotors: the tangent map is block-diagonal, "
            "so the bracket dq1(t)/dp2(0) vanishes identically"
        )
    t_lo, t_hi = fit_window or (2, 5)
    if t_lo < 2 or t_hi - t_lo < 2:
        raise ValueError(
            f"fit window ({t_lo}, {t_hi}) must start at kick 2 or later "
            "(dq1/dp2(0) is identically 0 at t = 1) and hold at least three kicks"
        )
    p1, q1, p2, q2 = rng.random((4, ensemble))
    sin_q2_0_sq = np.sin(_TWO_PI * q2) ** 2
    zeros = np.zeros(ensemble)
    v = (zeros, zeros, np.ones(ensemble), zeros)
    log_scale = np.zeros(ensemble)  # ln of the factor divided out of v
    times, mean_logs = [], []
    excluded = 0
    with np.errstate(over="raise", invalid="raise"):  # finite inputs: only overflow
        try:
            for t in range(1, t_hi + 1):
                peak = np.maximum.reduce([np.abs(x) for x in v])
                big = peak > 1e100
                if big.any():
                    v = tuple(np.where(big, x / peak, x) for x in v)
                    log_scale[big] += np.log(peak[big])
                v = _tangent_column_step(v, q1, q2, K1, K2, b)
                p1, q1, p2, q2 = _step_arrays(p1, q1, p2, q2, K1, K2, b)
                if t < t_lo:
                    continue
                c_cl = np.sin(_TWO_PI * q1) ** 2 * sin_q2_0_sq * v[1] ** 2
                good = c_cl > 0.0
                excluded = max(excluded, ensemble - int(good.sum()))
                times.append(t)
                mean_logs.append((np.log(c_cl[good]) + 2.0 * log_scale[good]).mean())
        except FloatingPointError:
            raise FloatingPointError(
                f"the tangent map or C_cl overflows at kick {t} for (K1, K2, b) = "
                f"({K1}, {K2}, {b}); weaken the kicks or end the fit window earlier"
            ) from None
    if excluded > 0.01 * ensemble:
        raise RuntimeError(
            f"{excluded} of {ensemble} realizations had a vanishing bracket"
        )
    slope, intercept, stderr = linear_fit(times, mean_logs)
    return FitResult(slope, intercept, stderr, (int(t_lo), int(t_hi)))
