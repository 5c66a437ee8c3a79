"""Hilbert-space building blocks for bipartite torus maps.

Everything works in the discrete position basis ``n = 0..N-1``. The momentum
translation ``T_p`` is diagonal here, the position translation ``T_q`` is the
cyclic shift, and the standard local observable is ``(T_p + T_p^dag)/2``,
i.e. a diagonal cosine. Product-space observables ``O x I`` and ``I x O``
are kept as their N x N factor (:func:`embed`).  The dense path never builds
A(0): it starts from the factor's stack (:func:`otoclab.otoc.kicked_c2_c4`).
Only :meth:`Embedded.dense` builds the N^2 x N^2 matrix, the brute-force
oracle of the tests.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bipartite

# The dense kick's scratch is at most KICK_SCRATCH_BYTES: one whole operator
# up to N = 32, a block of rows or columns above.  DENSE_BUDGET_BYTES is 1 GiB
# for A(t) plus that scratch, so dim <= 2^13 (N = 90).  Larger systems must
# use the stochastic path, whose five probe blocks, 80 N^2 k bytes for k
# probes, the same budget caps (:func:`probe_block_width`).
KICK_SCRATCH_BYTES = 2**25
DENSE_BUDGET_BYTES = 2**30 + KICK_SCRATCH_BYTES


class BudgetError(ValueError):
    """The dense operator or the probe blocks would exceed the memory budget."""


def kick_scratch_bytes(dim):
    """Bytes of the dense kick's scratch for a dim x dim operator."""
    return min(16 * dim**2, KICK_SCRATCH_BYTES)


def check_budget(dim):
    need = 16 * dim**2 + kick_scratch_bytes(dim)
    if need > DENSE_BUDGET_BYTES:
        raise BudgetError(
            f"dense dimension {dim} needs {need} bytes for A(t) and the kick's "
            f"scratch, over the budget of {DENSE_BUDGET_BYTES} bytes; "
            "use path=stochastic for larger systems"
        )


def probe_block_width(N, width):
    """The number of probes, at most ``width``, whose five (N, k, N) blocks
    of the stochastic path, 80 N^2 k bytes, fit the budget; BudgetError
    when one probe does not fit."""
    per_probe = 80 * N**2
    k = min(width, DENSE_BUDGET_BYTES // per_probe)
    if k < 1:
        raise BudgetError(
            f"stochastic dimension N = {N} needs {per_probe} bytes for five "
            f"one-probe blocks, over the budget of {DENSE_BUDGET_BYTES} bytes"
        )
    return k


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix with read-only entries.  Structure is
    checked by value where it is used: Hermiticity by
    :func:`otoclab.otoc.saturation_value`, unitarity by the norm drift of
    every dense kick."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", m)
        m.setflags(write=False)

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set for one coupled-rotor system.

    ``N`` is the Hilbert dimension per subsystem, ``K1``/``K2`` the kick
    strengths, ``b`` the rotor interaction, ``alpha`` the quantum phase
    (0.35 by default, breaking parity).
    """

    N: int
    K1: float = 0.0
    K2: float = 0.0
    b: float = 0.0
    alpha: float = 0.35

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("subsystem dimension must be at least 2")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")


def _check_N(N):
    if N < 2:
        raise ValueError("dimension must be at least 2")


def translation_p(N, alpha=0.0):
    """Momentum translation, diagonal in position: exp(2 pi i (n+alpha)/N)."""
    _check_N(N)
    if not 0.0 <= alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    phases = np.exp(2j * np.pi * (np.arange(N) + alpha) / N)
    return OperatorMatrix(np.diag(phases))


def translation_q(N):
    """Cyclic position shift |n> -> |n+1 mod N>."""
    _check_N(N)
    return OperatorMatrix(np.roll(np.eye(N), 1, axis=0))


def cosine_observable(N, alpha=0.0):
    """The observable (T_p + T_p^dag)/2 = diag cos(2 pi (n+alpha)/N)."""
    _check_N(N)
    vals = np.cos(2 * np.pi * (np.arange(N) + alpha) / N)
    return OperatorMatrix(np.diag(vals))


def gue_observable(N, rng_seed):
    """Hermitian GUE observable (M + M^dag)/2, reproducible from the seed.

    The real and imaginary parts of M are i.i.d. standard normal; no extra
    1/sqrt(N) scaling is applied since the OTOC is normalized by its
    saturation value anyway.
    """
    _check_N(N)
    rng = np.random.default_rng(rng_seed)
    m = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return OperatorMatrix((m + m.conj().T) / 2)


@dataclass(frozen=True)
class Embedded:
    """``op x I`` (side "left") or ``I x op`` (side "right") with an identity
    of dimension ``n_other``, stored as the factor ``op`` alone: the pair
    (``op.entries``, ``side``) is what :func:`otoclab.bipartite.apply_local`
    and :func:`otoclab.bipartite.right_multiply_embedded` take.

    :attr:`diagonal` holds the factor's diagonal when every off-diagonal
    entry is exactly zero, as for the cosine observable; :meth:`apply` then
    passes it instead, one elementwise product in place of a gemm, and the
    dense path's traces skip the eigenbasis rotation."""

    side: str
    op: OperatorMatrix
    n_other: int

    def __post_init__(self):
        if self.op.dim < 2:
            raise ValueError("operator dimension must be at least 2")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")

    @property
    def dim(self):
        return self.op.dim * self.n_other

    @cached_property
    def diagonal(self):
        """The factor's diagonal if all its off-diagonal entries are exactly
        0, with no tolerance, else None."""
        m = self.op.entries
        d = np.diagonal(m)
        return None if np.any(m - np.diag(d)) else d

    def apply(self, X, out):
        """This observable on a probe block X of shape (N, k, N), or a
        length-N^2 vector, into ``out``, a C-contiguous array of X's shape:
        :func:`otoclab.bipartite.apply_local` of the :attr:`diagonal` when
        there is one, one elementwise product, else of the factor, one gemm.
        For the real diagonal of a Hermitian factor the two are equal bit
        for bit, since the gemm only adds exact zeros to it."""
        factor = self.op.entries if self.diagonal is None else self.diagonal
        return bipartite.apply_local(X, factor, self.side, out)

    def dense(self):
        """The dim x dim Kronecker product, checked against the budget: the
        factor written into zeros once per index i of the identity, through
        the strided view of the (op, identity) index pairs at (i, i).  The
        tests' brute-force oracle; the package itself never builds it."""
        check_budget(self.dim)
        m, k = self.op.dim, self.n_other
        out = np.zeros((self.dim, self.dim), complex)
        if self.side == "left":
            view = out.reshape(m, k, m, k)
            for i in range(k):
                view[:, i, :, i] = self.op.entries
        else:
            view = out.reshape(k, m, k, m)
            for i in range(k):
                view[i, :, i, :] = self.op.entries
        return out


def embed(op, side, N_other):
    """Kronecker-embed a subsystem operator: O x I (left) or I x O (right).
    Nothing of product-space size is built; see :meth:`Embedded.dense`."""
    return Embedded(side, op, N_other)
