"""Parameter validation: ``Params`` rejects a bad l, e, multicharge or n."""

import pytest

from quivertl.params import Params, ParamsError


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 4, ()), "l must be an integer >= 1"),
        ((1, 1, (0,)), "e must be >= 2"),
        ((2, 4, (0, 1)), "multicharge must satisfy"),
        ((2, 4, (0, 2), -1), "n must be a nonnegative integer"),
    ],
    ids=["l", "e", "adjacent", "n"],
)
def test_rejects(args, message):
    with pytest.raises(ParamsError, match=message):
        Params(*args)
