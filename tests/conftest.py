import gc

import hypothesis
import pytest

# Derandomized so failures reproduce exactly in CI and locally.
hypothesis.settings.register_profile(
    "cswsat",
    derandomize=True,
    max_examples=100,
    deadline=None,
)
hypothesis.settings.load_profile("cswsat")


@pytest.fixture
def collector_off():
    """The cyclic garbage collector off for the test, with no garbage left
    from before, so that `gc.collect()` counts what the test made."""
    was = gc.isenabled()
    gc.disable()
    gc.collect()
    yield
    if was:
        gc.enable()


@pytest.fixture
def collector_on():
    """The cyclic garbage collector on for the test."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()
