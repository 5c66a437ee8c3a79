"""Independent correctness checks for the benchmark's outputs.

Nothing here calls the kick, trace or sampling code of ``otoclab``: the
propagators are rebuilt from the formulas in the module docstrings with
``np.kron``, and C(t) = -1/2 Tr([A(t), B]^2) is evaluated on full matrices.
Every check returns ``None`` when it holds and a one-line reason when not.
"""

import numpy as np
from scipy.special import j0

# Paper values of the classical 2*lambda for K = (9, 10) and (20, 21).
TWO_LAMBDA = {(9.0, 10.0): 3.916, (20.0, 21.0): 5.435}
# Acceptance criterion 05 accepts a fitted Lyapunov slope within 0.2 of 3.91.
LYAPUNOV_BAND = 0.2
RATE_REL_TOL = 0.10
CLASSICAL_REL_TOL = 0.02
ROUNDOFF = 1e-12
# Stochastic estimate against brute force, in units of its own standard
# error: the series has T+1 correlated points, so this is a per-point bound
# far in the tail of the normal distribution.
STOCHASTIC_SIGMAS = 6.0


def rotor_single(N, K, alpha=0.35):
    """<n'|U_K|n> = exp[-i (N K/2 pi) cos(2 pi (n+alpha)/N)] exp[i pi (n-n')^2/N]/sqrt N."""
    n = np.arange(N)
    kick = np.exp(-1j * (N * K / (2 * np.pi)) * np.cos(2 * np.pi * (n + alpha) / N))
    drift = np.exp(1j * np.pi * np.subtract.outer(n, n) ** 2 / N) / np.sqrt(N)
    return drift * kick[None, :]


def rotor_propagator(N, K1, K2, b, alpha=0.35):
    """Full N^2 x N^2 matrix (U_K1 x U_K2) U_b, U_b diagonal in (n1, n2)."""
    n = np.arange(N)
    phase = np.cos(2 * np.pi * (n[:, None] + n[None, :] + 2 * alpha) / N)
    ub = np.exp(-1j * (N * b / (2 * np.pi)) * phase).ravel()
    return np.kron(rotor_single(N, K1, alpha), rotor_single(N, K2, alpha)) * ub[None, :]


def cosine(N, alpha=0.35):
    return np.diag(np.cos(2 * np.pi * (np.arange(N) + alpha) / N))


def product_observables(o1, o2):
    """A0 = O1 x I and B = I x O2 as full matrices."""
    return np.kron(o1, np.eye(len(o2))), np.kron(np.eye(len(o1)), o2)


def brute_force_otoc(propagators, A0, B):
    """C(t) for t = 0..T; ``propagators`` holds the one-kick U of each step."""
    A = A0.astype(complex)
    out = []
    for t in range(len(propagators) + 1):
        if t:
            U = propagators[t - 1]
            A = U.conj().T @ A @ U
        comm = A @ B - B @ A
        out.append(-0.5 * np.trace(comm @ comm).real)
    return np.array(out)


def saturation(o1, o2):
    return float(np.sum(np.abs(o1) ** 2) * np.sum(np.abs(o2) ** 2))


def redraw_cue(N, rng):
    """Haar unitary from the documented stream: QR of a Ginibre matrix,
    R-diagonal phases folded back in."""
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def rmt_propagators(N, epsilon, T, seed, sample):
    """Re-draw the kicks of one RMT sample from
    ``SeedSequence(seed, spawn_key=(sample,))``: per step two CUE factors,
    then N^2 uniform phases in [-1/2, 1/2] scaled by 2 pi epsilon."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sample,)))
    out = []
    for _ in range(T):
        f1 = redraw_cue(N, rng)
        f2 = redraw_cue(N, rng)
        u = np.exp(2j * np.pi * epsilon * rng.uniform(-0.5, 0.5, N * N))
        out.append(np.kron(f1, f2) * u[None, :])
    return out


def mu_reference(N, b):
    """-4 ln|J0(N b / 2 pi)|, the relaxation rate of the coupled standard map."""
    return float(-4.0 * np.log(abs(j0(N * b / (2 * np.pi)))))


# --- checks --------------------------------------------------------------


def check_early_zero(c, c_inf):
    """C(0) = C(1) = 0 for observables diagonal in the interaction basis."""
    worst = float(np.max(np.abs(c[:2]))) / c_inf
    if not worst <= ROUNDOFF:
        return f"|C(0..1)|/C_inf = {worst:.3e} exceeds {ROUNDOFF:g}"
    return None


def check_bounds(c, c_inf):
    """0 <= C(t) <= 2 C_inf, up to roundoff."""
    lo, hi = float(np.min(c)) / c_inf, float(np.max(c)) / c_inf
    if not (lo >= -ROUNDOFF and hi <= 2.0):
        return f"C/C_inf spans [{lo:.3e}, {hi:.3e}], outside [0, 2]"
    return None


def check_close(c, reference, c_inf, what):
    """Agreement with a brute-force reference to 1e-12 C_inf."""
    dev = float(np.max(np.abs(np.asarray(c) - reference))) / c_inf
    if not dev <= ROUNDOFF:
        return f"{what} deviates from brute force by {dev:.3e} C_inf"
    return None


def check_within_errors(c, c_err, reference, c_inf):
    """Stochastic estimate within STOCHASTIC_SIGMAS standard errors."""
    sigma = np.maximum(c_err, ROUNDOFF * c_inf)
    z = float(np.max(np.abs(np.asarray(c) - reference) / sigma))
    if not z <= STOCHASTIC_SIGMAS:
        return f"stochastic series off brute force by {z:.2f} standard errors"
    return None


def check_lyapunov_slope(slope, target=TWO_LAMBDA[(9.0, 10.0)]):
    if not abs(slope - target) <= LYAPUNOV_BAND:
        return f"Lyapunov slope {slope:.4f} outside {target} +- {LYAPUNOV_BAND}"
    return None


def check_rate(mu_fit, N, b):
    ref = mu_reference(N, b)
    rel = abs(mu_fit - ref) / ref
    if not rel <= RATE_REL_TOL:
        return f"mu at Nb={N * b:g} is {mu_fit:.5g}, {rel:.1%} from {ref:.5g}"
    return None


def check_classical(slope, kicks):
    target = TWO_LAMBDA[kicks]
    rel = abs(slope - target) / target
    if not rel <= CLASSICAL_REL_TOL:
        return f"classical 2 lambda {slope:.4f} is {rel:.2%} from {target}"
    return None


def check_participation(pr, t_final=25, floor=0.9):
    pr = np.asarray(pr)
    if not np.all((pr > 0) & (pr <= 1.0)):
        return f"participation ratio leaves (0, 1]: [{pr.min():.4g}, {pr.max():.4g}]"
    if not pr[t_final] > floor:
        return f"participation ratio {pr[t_final]:.4f} at t={t_final} not above {floor}"
    return None
