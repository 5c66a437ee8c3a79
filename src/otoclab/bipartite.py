"""Structure-exploiting linear algebra on the bipartite product space.

Index layout is row-major with the subsystem-1 index outer: a product-space
vector of length N^2 reshapes to an (n1, n2) matrix, and an operator on the
product space reshapes to the four-index tensor T[a1, a2, b1, b2].  A block
of k probe vectors is held as an (N, k, N) array (subsystem-1 index, probe,
subsystem-2 index), so that a local factor on either subsystem is one 2-D
gemm over the whole block; a length-N^2 vector is the k = 1 block, with
the same memory.  All routines here cost O(N^3)..O(N^5) instead of the
naive O(N^4)..O(N^6), and every product runs on BLAS-able (batched,
possibly strided) matrices, so no step copies a transposed operator.  The
dense kick, Kronecker factors and diagonal interaction phase together,
runs in place in A, in blocks of rows and then of columns through a
caller's scratch, which may be a fraction of an operator; the phase rides
in per-index copies of U2, N^3 entries, so the kick allocates nothing of
operator size and makes no elementwise pass over A.
"""

import numpy as np


def split_dim(dim_sq):
    n = round(np.sqrt(dim_sq))
    if n * n != dim_sq:
        raise ValueError(f"dimension {dim_sq} is not a perfect square")
    return n


def block_dim(X):
    """N of a probe block of shape (N, k, N) or of a length-N^2 vector."""
    if X.ndim == 1:
        return split_dim(X.shape[0])
    if X.ndim == 3 and X.shape[0] == X.shape[2]:
        return X.shape[0]
    raise ValueError(f"shape {X.shape} is neither (N^2,) nor an (N, k, N) probe block")


def as_block(cols):
    """The (N, k, N) probe block of an (N^2, k) stack of column vectors, as
    a strided view."""
    n = split_dim(cols.shape[0])
    return cols.reshape(n, n, -1).transpose(0, 2, 1)


def check_out(X, out):
    """Refuse an ``out`` that is not a C-contiguous array of X's shape."""
    if out.shape != X.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {X.shape}")


def apply_local(X, U1=None, U2=None, out=None):
    """(U1 x U2) X for a probe block X of shape (N, k, N), or a length-N^2
    vector, the k = 1 block; a None factor is the identity.  U1 is one
    (N, N) @ (N, kN) gemm on the outer index, U2 one (kN, N) @ (N, N)
    gemm on the inner one.  The result goes to ``out`` when given, a
    C-contiguous array of X's shape.  With both factors the product
    between the two gemms is a fresh block."""
    n = block_dim(X)
    if out is None:
        out = np.empty(X.shape, complex)
    else:
        check_out(X, out)
    src = X
    if U1 is not None:
        dst = out if U2 is None else np.empty_like(out)
        np.matmul(U1, src.reshape(n, -1), out=dst.reshape(n, -1))
        src = dst
    if U2 is not None:
        np.matmul(src.reshape(-1, n), U2.T, out=out.reshape(-1, n))
    elif U1 is None:
        np.copyto(out, X)
    return out


def right_multiply_embedded(X, U1=None, U2=None):
    """X (U1 x U2) for X with N^2 columns; a None factor is the identity.
    U2 acts on the inner column index, then U1 on the outer one, batched
    over the rows."""
    n = split_dim(X.shape[-1])
    out = X
    if U2 is not None:
        out = out.reshape(-1, n) @ U2
    if U1 is not None:
        out = U1.T @ out.reshape(-1, n, n)
    return out.reshape(X.shape)


def kron_conjugate(U1, U2, A, work, d):
    """A <- D^dag (U1 x U2)^dag A (U1 x U2) D in place, for diagonal D with
    entries d, without forming the Kronecker product or D, in two blocked
    passes through the scratch ``work``.

    The row pass takes w contiguous rows at a time to A (U1 x U2) D: U1 on
    the outer column index into ``work``, then, batched over the outer
    index b1, U2 diag(d[b1, :]) on the inner one back into A.  The column
    pass takes w columns at a time, as a strided view of A, to
    ((U1 x U2) D)^dag A: U1^dag on the outer row index, then
    diag(d[b1, :])^dag U2^dag on the inner one.  D rides in those N
    factors, a stack of N^3 entries per pass, so no pass over A applies it;
    one stack is alive at a time.  Every product is a matmul on BLAS-able
    operands, so nothing is copied.  The block width is w = min(dim,
    work.size // dim); ``work`` needs at least dim entries, and its
    contents are overwritten.
    """
    dim = A.shape[0]
    n = split_dim(dim)
    w = min(dim, work.size // dim)
    if w < 1:
        raise ValueError(f"scratch of {work.size} entries is below dim = {dim}")
    buf = work.reshape(-1)
    d = d.reshape(n, n)
    # einsum builds each stack without a broadcasting ufunc's buffers
    U2d = np.einsum("ab,ib->iab", U2, d)  # U2d[b1] = U2 diag(d[b1, :])
    for r in range(0, dim, w):
        blk = A[r:r + w].reshape(-1, n, n)
        s = buf[:blk.size].reshape(blk.shape)
        np.matmul(U1.T, blk, out=s)
        np.matmul(s.transpose(1, 0, 2), U2d, out=blk.transpose(1, 0, 2))
    del U2d
    U1h = U1.conj().T
    U2hd = np.einsum("ia,ba->iab", d.conj(), U2.conj())  # diag(d[b1, :])^dag U2^dag
    for c in range(0, dim, w):
        X = A[:, c:c + w].reshape(n, n, -1)
        S = buf[:X.size].reshape(X.shape)
        np.matmul(U1h, X.transpose(1, 0, 2), out=S)
        np.matmul(U2hd, S.transpose(1, 0, 2), out=X)


def diag_conjugate(d, A):
    """A <- D^dag A D in place, for diagonal D with entries d: the oracle
    that the interaction phase folded into :func:`kron_conjugate` is
    tested against."""
    A *= d.conj()[:, None]
    A *= d


def trace_product(X, Y):
    """Hilbert-Schmidt product Tr[X^dag Y]; equals Tr[X Y] for Hermitian X.

    Summed as one dot product per row.  In the package it reduces only the
    N x N weight matrix W, twice per evaluation of ``otoc._traces`` (C2 and
    C); perfbench pins its 8 calls for a dense series of T = 3 kicks.
    """
    return np.vecdot(X, Y).sum()
