import re

import numpy as np
import pytest


@pytest.fixture
def integer_rule():
    """A check that ``call(x)`` refuses a float and a bool ``x`` as not
    an integer named ``name``, and that a numpy integer gives what the
    int ``value`` gives, under ``repr``."""

    def check(call, name, value):
        for bad in (value + 0.5, True):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, not {bad!r}")):
                call(bad)
        want = repr(call(value))
        for dtype in (np.int64, np.uint8):
            assert repr(call(dtype(value))) == want

    return check


@pytest.fixture
def positive_rule(integer_rule):
    """``integer_rule``'s check, and a check that ``call(x)`` refuses 0
    and -1 as not positive, naming ``name``."""

    def check(call, name, value):
        integer_rule(call, name, value)
        for bad in (0, -1):
            with pytest.raises(ValueError, match=re.escape(f"{name} must be positive")):
                call(bad)

    return check
