"""Random-matrix model of the weakly coupled bipartite Floquet system.

Each time step draws fresh, independent CUE factors for both subsystems and
a fresh random diagonal interaction exp(2 pi i eps xi) with xi uniform in
[-1/2, 1/2].  The ensemble-averaged OTOC has the closed form
C(t) = Tr(O1^2) Tr(O2^2) [1 - sinc^{4t}(pi eps)] to leading order in N
(exponent 4(t-1) when the observables are diagonal in the interaction
basis), with relaxation rate mu = -4 ln|sinc(pi eps)|.

The Monte Carlo runs its realizations through
:func:`otoclab.parallel.map_tasks` on :func:`otoclab.parallel.pool_size`
workers, sized by the kicks' multiply-adds, so a small ensemble runs in
process; each realization draws from its own seed substream, so the result
does not depend on the number of workers.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .operators import check_budget, embed
from .otoc import OtocSeries, kicked_c2_c4, saturation_value
from .parallel import map_tasks, pool_size, task_rng, worker_blas_threads


@dataclass(frozen=True)
class RmtEnsembleSpec:
    N: int
    epsilon: float
    T: int
    samples: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("ensemble size must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def sample_cue(N, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are folded back in; without that correction plain
    QR is not Haar.
    """
    if N < 2:
        raise ValueError("dimension must be at least 2")
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def sample_interaction(N, epsilon, rng):
    """Fresh random diagonal interaction of length N^2, unimodular entries."""
    if N < 2:
        raise ValueError("dimension must be at least 2")
    xi = rng.uniform(-0.5, 0.5, N * N)
    return np.exp(2j * np.pi * epsilon * xi)


def sinc(x):
    """sin(x)/x with the removable singularity filled in."""
    return np.sinc(x / np.pi)


def mu_rmt(epsilon):
    """Universal RMT relaxation rate -4 ln|sinc(pi eps)|."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1); sinc(pi eps) vanishes at 1")
    return float(-4.0 * np.log(np.abs(sinc(np.pi * epsilon))))


def epsilon_from_b(N, b):
    """Map the rotor interaction b to the equivalent RMT strength eps."""
    if b < 0:
        raise ValueError("interaction strength must be nonnegative")
    return float(np.sqrt(3.0 / 8.0) * N * b / np.pi**2)


def analytic_otoc(epsilon, t, trO1sq, trO2sq, diagonal_observables=False):
    """Closed-form ensemble-averaged C(t) of the RMT model."""
    if diagonal_observables:
        if t < 1:
            raise ValueError("diagonal-observable branch is defined for t >= 1")
        exponent = 4 * (t - 1)
    else:
        exponent = 4 * t
    return float(trO1sq * trO2sq * (1.0 - sinc(np.pi * epsilon) ** exponent))


def _sampled_kicks(spec, rng):
    """The T random kicks of one realization: two CUE factors, then the
    interaction, drawn in that order from ``rng``."""
    for _ in range(spec.T):
        yield (
            sample_cue(spec.N, rng),
            sample_cue(spec.N, rng),
            sample_interaction(spec.N, spec.epsilon, rng),
        )


def _sample_c2_c4(spec, A0, B0, s):
    """C2(t) and C4(t) of realization ``s``.  It draws from its own
    substream, so its value does not depend on which process runs it."""
    return kicked_c2_c4(A0, B0, _sampled_kicks(spec, task_rng(spec.rng_seed, s)))


def rmt_otoc_mc(spec, O1, O2):
    """Monte Carlo OTOC over the random-matrix ensemble, exact traces per
    realization; returns the means of C2 and C4 and the standard error of C.

    The realizations run on the returned series' ``.meta["workers"]``
    processes, each with ``.meta["worker_blas_threads"]`` BLAS threads; with
    one worker they run in this process, on its own BLAS threads.  The rows
    are gathered in realization order, so the result is the same for every
    worker count."""
    c_inf = saturation_value(O1, O2)
    check_budget(spec.N**2)  # before any worker starts
    A0 = embed(O1, "left", spec.N)
    B0 = embed(O2, "right", spec.N)

    sample = partial(_sample_c2_c4, spec, A0, B0)
    # T kicks per sample, each four products of N^5 complex multiply-adds
    workers = pool_size(spec.samples, spec.samples * spec.T * 4 * spec.N**5)
    rows = map_tasks(sample, range(spec.samples), workers)
    c2, c4 = (np.array(r) for r in zip(*rows))

    sqrt_s = np.sqrt(spec.samples)
    return OtocSeries(
        times=np.arange(spec.T + 1),
        c2=c2.mean(axis=0),
        c4=c4.mean(axis=0),
        c_infinity=c_inf,
        meta={
            "scenario": "rmt", "spec": spec, "path": "rmt_mc",
            "workers": workers, "worker_blas_threads": worker_blas_threads(workers),
        },
        c_err=(c2 - c4).std(axis=0, ddof=1) / sqrt_s if spec.samples > 1 else np.zeros(spec.T + 1),
    )
