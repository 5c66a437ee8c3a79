"""Torus coherent states, reduced Husimi functions and participation ratio.

The coherent state |0,0> is the ground state of the Harper operator
2 - (T_q + T_q^dag + T_p + T_p^dag)/2; the rest of the N x N von Neumann
lattice is generated by |n,m> = T_p^m T_q^n |0,0>.  Because the N^2
translations form a complete orthogonal operator basis, the frame resolves
the identity exactly: (1/N) sum |n,m><n,m| = I.
"""

from dataclasses import dataclass

import numpy as np

from .kicked_rotor import apply_floquet


class DegenerateGroundState(RuntimeError):
    """Harper ground state is (numerically) degenerate; frame is ill-defined."""


def harper_ground_state(N, alpha=0.35, gap_tol=1e-8):
    """Normalized ground state of the Harper operator.

    Raises :class:`DegenerateGroundState` with the measured gap instead of
    silently picking a vector from a degenerate ground space.
    """
    if N < 2:
        raise ValueError("dimension must be at least 2")
    n = np.arange(N)
    tp = np.exp(2j * np.pi * (n + alpha) / N)
    tq = np.roll(np.eye(N), 1, axis=0)
    H = 2.0 * np.eye(N) - (tq + tq.T + np.diag(tp) + np.diag(tp.conj())) / 2.0
    evals, evecs = np.linalg.eigh(H)
    gap = evals[1] - evals[0]
    if gap < gap_tol:
        raise DegenerateGroundState(
            f"Harper ground-state gap {gap:.3e} below {gap_tol:.1e} at N={N}"
        )
    g = evecs[:, 0]
    return g / np.linalg.norm(g)


@dataclass(frozen=True)
class CoherentFrame:
    """All N^2 translated Harper states; row n*N + m holds |n,m>."""

    N: int
    alpha: float
    states: np.ndarray

    def state(self, n, m):
        if not (0 <= n < self.N and 0 <= m < self.N):
            raise IndexError(f"grid indices ({n}, {m}) out of range for N={self.N}")
        return self.states[n * self.N + m]


def coherent_frame(N, alpha=0.35):
    g = harper_ground_state(N, alpha)
    tp = np.exp(2j * np.pi * (np.arange(N) + alpha) / N)
    powers = tp[None, :] ** np.arange(N)[:, None]  # powers[m] = diag of T_p^m
    states = np.empty((N, N, N), dtype=complex)
    for n in range(N):
        states[n] = powers * np.roll(g, n)[None, :]
    return CoherentFrame(N=N, alpha=alpha, states=states.reshape(N * N, N))


def evolve_product_state(F, q0, p0, T, frame=None):
    """States U^t (|q0,p0> x |q0,p0>) for t = 0..T, rows of the result."""
    N = F.N
    if frame is None:
        frame = coherent_frame(N, F.params.alpha)
    n0 = int(round(q0 * N)) % N
    m0 = int(round(p0 * N)) % N
    coh = frame.state(n0, m0)
    psi = np.outer(coh, coh).ravel()
    out = np.empty((T + 1, N * N), dtype=complex)
    out[0] = psi
    for t in range(1, T + 1):
        psi = apply_floquet(F, psi, "forward")
        out[t] = psi
    return out


def partial_trace_over_first(psi, N):
    """Reduced density matrix of subsystem 2 for a product-space state."""
    psi = np.asarray(psi)
    if psi.shape != (N * N,):
        raise ValueError(f"state shape {psi.shape} != (N^2,)")
    P = psi.reshape(N, N)
    return P.T @ P.conj()


def reduced_husimi(rhoB, frame):
    """Coherent-state diagonal <n,m|rho_B|n,m> on the frame grid: an N x N
    array whose entry [n, m] is the weight at (q = n/N, p = m/N),
    nonnegative and summing to N."""
    N = frame.N
    if rhoB.shape != (N, N):
        raise ValueError(f"density matrix shape {rhoB.shape} does not match frame")
    S = frame.states
    q = ((S.conj() @ rhoB) * S).sum(1).real
    q = np.clip(q, 0.0, None)  # tiny negatives are round-off
    q *= N / q.sum()
    return q.reshape(N, N)


def participation_ratio(grid):
    """1 / sum Q^2 of a :func:`reduced_husimi` grid: in (0, 1], with 1 the
    fully delocalized flat grid."""
    return float(1.0 / np.sum(grid**2))


def pr_series(F, q0, p0, T, frame=None):
    """Participation ratio of subsystem 2 along the evolved product state."""
    N = F.N
    if frame is None:
        frame = coherent_frame(N, F.params.alpha)
    states = evolve_product_state(F, q0, p0, T, frame=frame)
    out = np.empty(T + 1)
    for t in range(T + 1):
        rho_b = partial_trace_over_first(states[t], N)
        out[t] = participation_ratio(reduced_husimi(rho_b, frame))
    return out
