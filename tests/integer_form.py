"""``lp_max_min`` and ``solve_exact`` on input given in ints and Fractions.

``lp_max_min`` takes a point as integer numerators over one denominator and
integer direction rows, the form ``solve_exact`` certifies. ``max_min``
converts a Fraction family to that form with its own arithmetic, calls it and
returns the point as Fractions. ``solve_exact`` takes integer entries only;
``integer_rows`` restates a rational system ``[M | rhs]`` with each row
multiplied by the lcm of its denominators, which keeps every solution and the
kernel. ``assert_integer_array`` checks an array against the package's integer
rule. The module name has no ``test_`` prefix, so pytest does not collect it.
"""

from fractions import Fraction
from math import lcm

import numpy as np

from eqcurv import lp_max_min


def assert_integer_array(a: np.ndarray, fits: bool) -> None:
    """``a`` is int64 when its bound holds (``fits``), else an array of Python ints."""
    if fits:
        assert a.dtype == np.int64
    else:
        assert a.dtype == object and all(type(v) is int for v in a.flat)


def _numerators(values) -> tuple[list[int], int]:
    """``(nums, den)`` with ``values[i] == nums[i] / den``, den the lcm of the denominators."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def integer_rows(matrix, rhs) -> tuple[list[list[int]], list[int]]:
    """``(M', rhs')``: row i of ``[M | rhs]`` times the lcm of its denominators."""
    rows = [_numerators([*row, b])[0] for row, b in zip(matrix, rhs)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


def max_min(particular, nullspace) -> tuple[Fraction, ...]:
    """The leximin point of ``particular + span(nullspace)``, as Fractions.

    Each nullspace vector becomes its integer multiple by the lcm of its
    denominators; the scale of a direction does not change the point.
    """
    rows = [_numerators(vec)[0] for vec in nullspace]
    nums, den = lp_max_min(_numerators(particular), rows)
    return tuple(Fraction(v, den) for v in nums.tolist())
