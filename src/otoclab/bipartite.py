"""Structure-exploiting linear algebra on the bipartite product space.

Index layout is row-major with the subsystem-1 index outer: a product-space
vector of length N^2 reshapes to an (n1, n2) matrix, and an operator on the
product space reshapes to the four-index tensor T[a1, a2, b1, b2].  All
routines here cost O(N^3)..O(N^5) instead of the naive O(N^4)..O(N^6), and
every product runs on contiguous (batched) matrices, so no step copies a
transposed operator.  The dense kick runs in place in two operators, A and
a caller's scratch buffer, and allocates nothing of operator size.
"""

import numpy as np


def split_dim(dim_sq):
    n = round(np.sqrt(dim_sq))
    if n * n != dim_sq:
        raise ValueError(f"dimension {dim_sq} is not a perfect square")
    return n


def apply_local(X, U1=None, U2=None):
    """(U1 x U2) X for X with N^2 rows (a vector, a batch of columns or an
    operator); a None factor is the identity.  U1 acts on the outer row
    index, then U2 on the inner one, batched over the outer."""
    n = split_dim(X.shape[0])
    out = X
    if U1 is not None:
        out = U1 @ out.reshape(n, -1)
    if U2 is not None:
        out = U2 @ out.reshape(n, n, -1)
    return out.reshape(X.shape)


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


def kron_conjugate(U1, U2, A, work):
    """A <- (U1 x U2)^dag A (U1 x U2) in place, without forming the Kronecker
    product: four contiguous matmuls, written alternately into the scratch
    ``work`` (A's shape) and A."""
    n = split_dim(A.shape[0])
    np.matmul(U1.conj().T, A.reshape(n, -1), out=work.reshape(n, -1))
    np.matmul(U2.conj().T, work.reshape(n, n, -1), out=A.reshape(n, n, -1))
    np.matmul(A.reshape(-1, n), U2, out=work.reshape(-1, n))
    np.matmul(U1.T, work.reshape(-1, n, n), out=A.reshape(-1, n, n))


def diag_conjugate(d, A):
    """A <- D^dag A D in place, for diagonal D with entries d."""
    A *= d.conj()[:, None]
    A *= d


def trace_product(X, Y):
    """Hilbert-Schmidt product Tr[X^dag Y]; equals Tr[X Y] for Hermitian X.

    Summed as one dot product per row.  Two complex dim x dim buffers fit
    DENSE_BUDGET_BYTES = 2^31 only for dim <= 2^13, so no budgeted row is
    longer: short enough that OpenBLAS runs each dot on one thread, and the
    value is bit-identical for every BLAS thread count; one ``np.vecdot``
    over the whole matrix would split its sum across threads.
    """
    return np.vecdot(X, Y).sum()
