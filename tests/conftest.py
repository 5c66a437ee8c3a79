import multiprocessing

import pytest


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
