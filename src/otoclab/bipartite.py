"""Structure-exploiting linear algebra on the bipartite product space.

Index layout is row-major with the subsystem-1 index outer: a product-space
vector of length N^2 reshapes to an (n1, n2) matrix, and an operator on the
product space reshapes to the four-index tensor T[a1, a2, b1, b2].  A block
of k probe vectors is held as an (N, k, N) array (subsystem-1 index, probe,
subsystem-2 index); a length-N^2 vector is the k = 1 block, with the same
memory.  A local factor is one N x N matrix, or its diagonal, acting on one
side, "left" for subsystem 1 and "right" for subsystem 2; on a block,
:func:`apply_local` applies the matrix as one 2-D gemm and the diagonal as
one elementwise product.  All routines here cost O(N^3)..O(N^5) instead of the
naive O(N^4)..O(N^6), and every product runs on BLAS-able (batched,
possibly strided) matrices, so no step copies a transposed operator.  The
dense kick, Kronecker factors and diagonal interaction phase together,
runs in place in A and picks its route from A's exact zero pattern, in one
orientation, with A(0) on subsystem 1: an O(N^3) write for A = X x I, one
N^5 gemm pass for A = sum_i X_i x |i><i| (the second kick of a local
observable), and otherwise 4 N^5 in blocks of rows and then of columns
through a caller's scratch, which may be a fraction of an operator.  The
phase rides in per-index copies of a factor, N^3 entries, so no route
allocates anything of operator size or makes an elementwise pass over A.
On request the last route applies I x U2 alone, 2 N^5 as two gemms per
row block of A through N^3 entries of the scratch: all that a trace
against I x O with a diagonal O sees of the kick.
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


def check_out(X, out):
    """Refuse an ``out`` that is not a C-contiguous array of X's shape."""
    if out.shape != X.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {X.shape}")


def apply_local(X, U, side, out=None):
    """(U x I) X for side "left", (I x U) X for "right", on a probe block X
    of shape (N, k, N), or a length-N^2 vector, the k = 1 block.  An (N, N)
    factor is one 2-D gemm over the block: (N, N) @ (N, kN) on the outer
    index, or (kN, N) @ (N, N) on the inner one.  An (N,) factor is the
    diagonal of U, applied as one elementwise product.  The result goes to
    ``out`` when given, a C-contiguous array of X's shape."""
    n = block_dim(X)
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if out is None:
        out = np.empty(X.shape, complex)
    else:
        check_out(X, out)
    if U.ndim == 1:
        d = U.reshape(n, 1, 1) if side == "left" else U
        np.multiply(d, X.reshape(n, -1, n), out=out.reshape(n, -1, n))
    elif side == "left":
        np.matmul(U, X.reshape(n, -1), out=out.reshape(n, -1))
    else:
        np.matmul(X.reshape(-1, n), U.T, out=out.reshape(-1, n))
    return out


def right_multiply_embedded(X, U, side):
    """X (U x I) for side "left", X (I x U) for "right", for X with N^2
    columns: U on the outer or the inner column index, batched over the
    rows."""
    n = split_dim(X.shape[-1])
    if side == "left":
        out = U.T @ X.reshape(-1, n, n)
    elif side == "right":
        out = X.reshape(-1, n) @ U
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return out.reshape(X.shape)


def kron_conjugate(U1, U2, A, work, d, inner_only=False):
    """A <- D^dag (U1 x U2)^dag A (U1 x U2) D in place, for diagonal D with
    entries d, without forming the Kronecker product or D.  The route
    follows A's exact zero pattern:

    - A = sum_i X_i x |i><i| is exactly zero wherever the subsystem-2 row
      and column index differ.  One sentinel entry, A[0, 1], rules that out
      for a dense A in one comparison; otherwise one ``np.count_nonzero``
      pass over A, N^4 reads, decides it.  A diagonal A has the pattern.
      Callers put a local A(0) on subsystem 1 (``otoc.kicked_c2_c4``
      mirrors one on subsystem 2), so an A = sum_i |i><i| x X_i without
      this pattern takes the general route.
    - Product route: if every X_i is the same X, so A = X x I, the kick is
      D^dag ((U1^dag X U1) x I) D, written onto the pattern alone in
      O(N^3); A stays exactly zero off it.  This takes U2^dag U2 as the
      identity, so it needs a unitary U2.
    - Block route: otherwise Y_i = U1^dag X_i U1, and all of A is one
      (N, N) @ (N, N^2) gemm per outer row index j, N^5 multiply-adds in
      all: sum_i [D^dag (Y_i x U2^dag |i><i| U2) D] restricted to j, with
      both phases of D folded into the two factors.
    - General route, two blocked passes of 2 N^5 each: the row pass takes
      w contiguous rows at a time to A (U1 x U2) D, U1 on the outer column
      index into ``work``, then, batched over the outer index b1,
      U2 diag(d[b1, :]) on the inner one back into A.  The column pass
      takes w columns at a time, as a strided view of A, to
      ((U1 x U2) D)^dag A: U1^dag on the outer row index, then
      diag(d[b1, :])^dag U2^dag on the inner one.  D rides in those N
      factors, a stack of N^3 entries per pass, so no pass over A applies
      it; one stack is alive at a time.
    - Inner-only route: with ``inner_only``, the general route instead
      takes A to (I x U2)^dag A (I x U2), and U1 and D are not applied.
      That is the kick a trace against B = I x O sees when O is diagonal,
      since U1 x I and D commute with such a B; ``otoc.kicked_c2_c4`` asks
      for it on the last kick.  Per outer row index a1, A's contiguous
      N x N^2 row block takes U2^dag from the left into ``work``, then U2
      from the right back into A: 2 N^5, in gemm panels at most 8 N wide,
      with no factor stack.  It needs N^3 entries of ``work``.  The product
      and block routes ignore ``inner_only``.

    Every product is a matmul on BLAS-able operands, so nothing of operator
    size is copied.  The block width is w = min(dim, work.size // dim);
    ``work`` needs at least dim entries, and its contents are overwritten.
    The block route keeps two N^3 stacks, the Y_i and one gemm operand, in
    ``work`` when it holds 2 N^3 entries (up to N = 90 at the kick's
    scratch of min(N^4, 2^21) entries), else in fresh arrays, and forms one
    N^3 factor stack of U2 and d, as the general route does.
    """
    dim = A.shape[0]
    n = split_dim(dim)
    if work.size < dim:
        raise ValueError(f"scratch of {work.size} entries is below dim = {dim}")
    if inner_only and work.size < n**3:
        raise ValueError(f"scratch of {work.size} entries is below N^3 = {n**3}")
    d = d.reshape(n, n)
    # X[i] = X_i, a writable view of A's entries with equal subsystem-2 indices
    X = np.einsum("aibi->iab", A.reshape(n, n, n, n))
    if A[0, 1] or np.count_nonzero(X) != np.count_nonzero(A):
        if inner_only:
            _inner_conjugate(U2, A, work)
        else:
            _two_pass_conjugate(U1, U2, A, work, d)
    elif all(np.array_equal(Xi, X[0]) for Xi in X[1:]):
        _product_conjugate(U1, X, d)
    else:
        _block_conjugate(U1, U2, A, work, d, X)


def _product_conjugate(U1, X, d):
    """The product route: X[i] <- U1^dag X[0] U1 with D's phases for
    index i."""
    Y = U1.conj().T @ X[0] @ U1
    # X[i] sits at (a, i, b, i), where D contributes conj(d[a, i]) d[b, i]
    for Xi, phase in zip(X, d.T):
        np.multiply(phase.conj()[:, None] * Y, phase, out=Xi)


def _block_conjugate(U1, U2, A, work, d, X):
    """The block route: Y_i = U1^dag X_i U1, then one gemm per outer row
    index j writes A's rows (j, a2)."""
    n, dim = d.shape[0], A.shape[0]
    if work.size >= 2 * n**3:
        Y, G = work.reshape(-1)[:2 * n**3].reshape(2, n, n, n)
    else:
        Y, G = np.empty((2, n, n, n), complex)
    np.copyto(Y, X)
    np.matmul(U1.conj().T, Y, out=G)
    np.matmul(G, U1, out=Y)
    Q = np.einsum("ik,jk->ijk", U2, d)  # Q[i, b1, b2] = U2[i, b2] d[b1, b2]
    U2h = U2.conj().T
    rows = A.reshape(n, n, dim)
    for j in range(n):  # conj(d[j, a2]) U2^dag against Y_i[j, b1] Q[i]
        np.multiply(Y[:, j, :, None], Q, out=G)
        np.matmul(d[j].conj()[:, None] * U2h, G.reshape(n, dim), out=rows[j])


def _two_pass_conjugate(U1, U2, A, work, d):
    """The general route of :func:`kron_conjugate`; d is shaped (N, N)."""
    dim = A.shape[0]
    n = d.shape[0]
    w = min(dim, work.size // dim)
    buf = work.reshape(-1)
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


def _inner_conjugate(U2, A, work):
    """The inner-only route of :func:`kron_conjugate`: A <- (I x U2)^dag A
    (I x U2), one row block of N x N^2 entries at a time."""
    n = U2.shape[0]
    p = 8 * n  # gemm panel width; wider panels grow OpenBLAS's buffers
    U2h = U2.conj().T
    s = work.reshape(-1)[:n**3].reshape(n, n * n)
    for R in A.reshape(n, n, n * n):  # rows a2 of one a1, columns (b1, b2)
        for c in range(0, n * n, p):
            np.matmul(U2h, R[:, c:c + p], out=s[:, c:c + p])
        rows, out = s.reshape(-1, n), R.reshape(-1, n)
        for r in range(0, n * n, p):
            np.matmul(rows[r:r + p], U2, out=out[r:r + p])


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
