"""Structure-exploiting linear algebra on the bipartite product space.

Index layout is row-major with the subsystem-1 index outer: a product-space
vector of length N^2 reshapes to an (n1, n2) matrix, and an operator on the
product space reshapes to the four-index tensor T[a1, a2, b1, b2].  All
routines here cost O(N^3)..O(N^5) instead of the naive O(N^4)..O(N^6), and
every product runs on contiguous (batched) matrices, so no step copies a
transposed operator.
"""

import numpy as np


def split_dim(dim_sq):
    n = round(np.sqrt(dim_sq))
    if n * n != dim_sq:
        raise ValueError(f"dimension {dim_sq} is not a perfect square")
    return n


def apply_local(psi, U1=None, U2=None):
    """Apply (U1 x U2) to one vector or a batch of column vectors."""
    n = split_dim(psi.shape[0])
    batch = psi.reshape(n, n, -1)
    if U1 is not None:
        batch = np.tensordot(U1, batch, axes=(1, 0))
    if U2 is not None:
        batch = np.tensordot(U2, batch, axes=(1, 1)).transpose(1, 0, 2)
    out = batch.reshape(n * n, -1)
    return out[:, 0] if psi.ndim == 1 else out


def kron_conjugate(U1, U2, A):
    """(U1 x U2)^dag A (U1 x U2) without forming the Kronecker product.

    Four contiguous products, one per tensor index of A[a1, a2, b1, b2]:
    U1^dag on a1, U2^dag on a2 (batched over a1), U2 on b2, and U1 on b1
    (batched over the row pair).
    """
    n = U1.shape[0]
    X = U1.conj().T @ A.reshape(n, n**3)
    X = U2.conj().T @ X.reshape(n, n, n * n)
    Y = X.reshape(n**3, n) @ U2
    Y = U1.T @ Y.reshape(n * n, n, n)
    return Y.reshape(n * n, n * n)


def diag_conjugate(d, A):
    """D^dag A D for diagonal D with entries d."""
    out = A * d.conj()[:, None]
    out *= d
    return out


def right_multiply_embedded(A, M, side):
    """A @ (M x I) ("left") or A @ (I x M) ("right") for a subsystem matrix M."""
    n = M.shape[0]
    if side == "right":
        return (A.reshape(-1, n) @ M).reshape(A.shape)
    return (M.T @ A.reshape(-1, n, n)).reshape(A.shape)


def left_multiply_embedded(M, X, side):
    """(M x I) @ X ("left") or (I x M) @ X ("right") for a subsystem matrix M."""
    n = M.shape[0]
    if side == "left":
        return (M @ X.reshape(n, -1)).reshape(X.shape)
    return (M @ X.reshape(n, n, -1)).reshape(X.shape)


def trace_product(X, Y):
    """Hilbert-Schmidt product Tr[X^dag Y]; equals Tr[X Y] for Hermitian X.

    Summed as one dot product per row.  Rows of a budgeted operator are
    short enough (at most 2^13 entries) that OpenBLAS runs each dot on one
    thread, so the value is bit-identical for every BLAS thread count; one
    ``np.vdot`` over the whole matrix would split its sum across threads.
    """
    return np.vecdot(X, Y).sum()


def frobenius_norm(X):
    """||X||_F, summed per row like :func:`trace_product`."""
    return float(np.sqrt(np.vecdot(X, X).sum().real))


def partial_trace_first(rho):
    """Trace out subsystem 1 of a product-space density matrix."""
    n = split_dim(rho.shape[0])
    return rho.reshape(n, n, n, n).trace(axis1=0, axis2=2)
