"""Floquet operators of the coupled kicked rotors on the torus.

The one-period propagator is U = (U_K1 x U_K2) U_b with U_b diagonal in the
product position basis.  The single-rotor matrix element is

    <n'|U_K|n> = exp[-i (N K / 2 pi) cos(2 pi (n+alpha)/N)]
                 * exp[i pi (n-n')^2 / N] / sqrt(N)

and the interaction entries are exp[-i (N b / 2 pi) cos(2 pi (n1+n2+2a)/N)].
The time between kicks is 1 throughout.
"""

from dataclasses import dataclass

import numpy as np

from . import bipartite
from .operators import OperatorMatrix, SystemParams, check_budget


def floquet_single(N, K, alpha=0.35):
    """One-period propagator of a single kicked rotor (kick, then drift)."""
    if N < 2:
        raise ValueError("dimension must be at least 2")
    if not np.isfinite(K):
        raise ValueError("kick strength must be finite")
    n = np.arange(N)
    kick = np.exp(-1j * (N * K / (2 * np.pi)) * np.cos(2 * np.pi * (n + alpha) / N))
    free = np.exp(1j * np.pi * (n[None, :] - n[:, None]) ** 2 / N) / np.sqrt(N)
    return OperatorMatrix(free * kick[None, :], role="unitary")


def interaction_diag(N, b, alpha=0.35):
    """Diagonal of U_b over (n1, n2) in row-major order (n1 outer)."""
    if N < 2:
        raise ValueError("dimension must be at least 2")
    n1 = np.arange(N)[:, None]
    n2 = np.arange(N)[None, :]
    phase = np.cos(2 * np.pi * (n1 + n2 + 2 * alpha) / N)
    return np.exp(-1j * (N * b / (2 * np.pi)) * phase).ravel()


@dataclass(frozen=True)
class CoupledFloquet:
    """Assembled coupled propagator; the dense form is built on demand."""

    params: SystemParams
    U1: OperatorMatrix
    U2: OperatorMatrix
    Ub_diag: np.ndarray

    @property
    def N(self):
        return self.params.N

    def dense(self):
        """Materialize the N^2 x N^2 matrix (budget permitting), untagged:
        its unitary factors are checked at N x N, not by an O(N^6) U^dag U."""
        check_budget(self.N**2)
        big = np.kron(self.U1.entries, self.U2.entries) * self.Ub_diag[None, :]
        return OperatorMatrix(big)


def coupled_floquet(params):
    return CoupledFloquet(
        params=params,
        U1=floquet_single(params.N, params.K1, params.alpha),
        U2=floquet_single(params.N, params.K2, params.alpha),
        Ub_diag=interaction_diag(params.N, params.b, params.alpha),
    )


def apply_floquet(F, psi, direction="forward"):
    """Apply U (or U^dag) to product-space vectors in O(N^3) per vector.

    ``psi`` may be a single length-N^2 vector or an (N^2, k) batch.
    """
    if psi.shape[0] != F.N**2:
        raise ValueError(f"vector length {psi.shape[0]} != N^2 = {F.N ** 2}")
    col = psi if psi.ndim == 2 else psi[:, None]
    if direction == "forward":
        out = bipartite.apply_local(
            F.Ub_diag[:, None] * col, F.U1.entries, F.U2.entries
        )
    elif direction == "adjoint":
        out = bipartite.apply_local(
            col, F.U1.entries.conj().T, F.U2.entries.conj().T
        )
        out = F.Ub_diag.conj()[:, None] * out
    else:
        raise ValueError(f"direction must be 'forward' or 'adjoint', got {direction!r}")
    return out if psi.ndim == 2 else out[:, 0]
