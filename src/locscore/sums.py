"""The one float sum behind every mean and objective the engine reports.

Python 3.12 made the builtin ``sum`` of floats compensated (Neumaier), so
the same floats can sum to different last bits on 3.11 and on 3.12.
``left_sum`` adds left to right, as the builtin does on 3.10 and 3.11, on
every interpreter. A ``math.isfinite(sum(...))`` guard needs only
finiteness, which both sums agree on, and may keep the builtin.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """``0 + values[0] + values[1] + ...``, one addition at a time from the left."""
    return reduce(operator.add, values, 0)
