from fractions import Fraction

import pytest

from lumirend import verify
from lumirend.core import MovementModel, SchedulerClass


@pytest.fixture(autouse=True)
def fresh_search_memo():
    """Each test starts with no shared search verdicts, so a test that
    patches the search sees its own searches run, whatever ran before it."""
    verify._MEMO.clear()


@pytest.fixture
def lcmv():
    return SchedulerClass.asynchronous(lc_atomic=True, move_atomic=True)


@pytest.fixture
def lc_only():
    return SchedulerClass.asynchronous(lc_atomic=True)


@pytest.fixture
def plain_async():
    return SchedulerClass.asynchronous()


@pytest.fixture
def rigid():
    return MovementModel.rigid()


@pytest.fixture
def nonrigid_quarter():
    return MovementModel.non_rigid(Fraction(1, 4))
