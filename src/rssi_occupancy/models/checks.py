"""The two checks of a numeric hyperparameter, shared by every family's constructor.

As scikit-learn declares a parameter's interval (Buitinck et al., 2013): a
count is an integral number >= 1, and a positive real is a finite number > 0
(>= 0 where zero is allowed). Each returns the converted value or raises
``ValueError``, so a bad config fails only its own folds.
"""

from __future__ import annotations

import math

import numpy as np


def count(name: str, value) -> int:
    """``value`` as an int if it is an integral number >= 1 (not a bool); else ValueError."""
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    )
    if not numeric or not float(value).is_integer() or value < 1:  # NaN and inf are not integers
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def positive(name: str, value, zero: bool = False) -> float:
    """``float(value)`` if it is finite and > 0 (>= 0 with ``zero``); else ValueError."""
    number = float(value)
    if not (math.isfinite(number) and (number >= 0 if zero else number > 0)):
        bound = ">= 0" if zero else "positive"
        raise ValueError(f"{name} must be {bound} and finite, got {value!r}")
    return number
