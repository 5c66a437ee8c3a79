import multiprocessing

import pytest

from otoclab import bipartite


def as_block(cols):
    """The (N, k, N) probe block of an (N^2, k) stack of column vectors, as
    a strided view."""
    n = bipartite.split_dim(cols.shape[0])
    return cols.reshape(n, n, -1).transpose(0, 2, 1)


@pytest.fixture(autouse=True)
def no_child_outlives_test():
    """Fail a test after which a child process is still alive, such as a
    worker of a pool that was not shut down; the leftovers are killed."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join(timeout=10)
    if children:
        pytest.fail(f"{len(children)} child processes outlived the test")


@pytest.fixture
def general_route_calls(monkeypatch):
    """The arguments of every call of the dense kick's two-pass route."""
    calls = []
    two_pass = bipartite._two_pass_conjugate

    def spy(*args):
        calls.append(args)
        two_pass(*args)

    monkeypatch.setattr(bipartite, "_two_pass_conjugate", spy)
    return calls


@pytest.fixture
def inner_route_calls(monkeypatch):
    """The arguments of every call of the dense kick's inner-only route."""
    calls = []
    inner = bipartite._inner_conjugate

    def spy(*args):
        calls.append(args)
        inner(*args)

    monkeypatch.setattr(bipartite, "_inner_conjugate", spy)
    return calls
