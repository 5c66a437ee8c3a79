"""Floquet operators of the coupled kicked rotors on the torus.

The one-period propagator is U = (U_K1 x U_K2) U_b with U_b diagonal in the
product position basis.  The single-rotor matrix element is

    <n'|U_K|n> = exp[-i (N K / 2 pi) cos(2 pi (n+alpha)/N)]
                 * exp[i pi (n-n')^2 / N] / sqrt(N)

and the interaction entries are exp[-i (N b / 2 pi) cos(2 pi (n1+n2+2a)/N)].
The time between kicks is 1 throughout.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bipartite
from .operators import OperatorMatrix, SystemParams, check_budget


def _finite_phase(N, value, name):
    """The phase amplitude N * value / 2 pi, refused unless finite: a NaN or
    infinite value, or one so large that the product overflows, would turn
    every propagator entry into NaN."""
    amplitude = N * value / (2 * np.pi)
    if not np.isfinite(amplitude):
        raise ValueError(f"phase N {name} / 2 pi is not finite for {name} = {value!r}")
    return amplitude


def floquet_single(N, K, alpha=0.35):
    """One-period propagator of a single kicked rotor (kick, then drift)."""
    if N < 2:
        raise ValueError("dimension must be at least 2")
    strength = _finite_phase(N, K, "K")
    n = np.arange(N)
    kick = np.exp(-1j * strength * np.cos(2 * np.pi * (n + alpha) / N))
    free = np.exp(1j * np.pi * (n[None, :] - n[:, None]) ** 2 / N) / np.sqrt(N)
    return OperatorMatrix(free * kick[None, :])


def interaction_diag(N, b, alpha=0.35):
    """Diagonal of U_b over (n1, n2) in row-major order (n1 outer)."""
    if N < 2:
        raise ValueError("dimension must be at least 2")
    strength = _finite_phase(N, b, "b")
    n1 = np.arange(N)[:, None]
    n2 = np.arange(N)[None, :]
    phase = np.cos(2 * np.pi * (n1 + n2 + 2 * alpha) / N)
    return np.exp(-1j * strength * phase).ravel()


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

    @cached_property
    def adjoint_factors(self):
        """(U1^dag, U2^dag, conj(U_b) shaped (N, 1, N)), formed once for
        :func:`apply_floquet`'s adjoint direction."""
        return (
            self.U1.entries.conj().T,
            self.U2.entries.conj().T,
            self.Ub_diag.conj().reshape(self.N, 1, self.N),
        )

    def dense(self):
        """Materialize the N^2 x N^2 matrix (budget permitting)."""
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


def apply_floquet(F, psi, direction="forward", out=None):
    """Apply U (or U^dag) to product-space vectors in O(N^3) per vector.

    ``psi`` is a length-N^2 vector or an (N, k, N) probe block (see
    :func:`otoclab.bipartite.apply_local`); each Kronecker factor is one
    2-D gemm over all of it, and the interaction phase one elementwise
    pass.  With ``out``, the result goes there and psi is the scratch
    between the passes, so its contents are lost and nothing is allocated;
    both must then be C-contiguous and of one shape.  Without, psi is left
    as it is.
    """
    N = F.N
    if bipartite.block_dim(psi) != N:
        raise ValueError(f"shape {psi.shape} does not match N = {N}")
    if direction not in ("forward", "adjoint"):
        raise ValueError(f"direction must be 'forward' or 'adjoint', got {direction!r}")
    if out is None:
        psi, out = psi.astype(complex, order="C"), np.empty(psi.shape, complex)
    elif out.shape != psi.shape or not (psi.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError(f"psi and out must be C-contiguous arrays of shape {psi.shape}")
    x, y = psi.reshape(N, -1, N), out.reshape(N, -1, N)
    if direction == "forward":  # (U1 x U2) D
        np.multiply(x, F.Ub_diag.reshape(N, 1, N), out=y)
        bipartite.apply_local(y, F.U1.entries, "left", out=x)
        bipartite.apply_local(x, F.U2.entries, "right", out=y)
    else:  # D^dag (U1^dag x U2^dag)
        U1h, U2h, d_conj = F.adjoint_factors
        bipartite.apply_local(x, U1h, "left", out=y)
        bipartite.apply_local(y, U2h, "right", out=x)
        np.multiply(x, d_conj, out=y)
    return out
