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
