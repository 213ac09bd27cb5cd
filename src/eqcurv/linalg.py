"""Numeric kernels: exact rational solving, symmetric eigenwork, and a small LP.

Two arithmetic worlds are kept deliberately separate, and only eigenwork
returns floating-point results:

* solvability classification, nullspaces and the lexicographic max-min
  canonicalization run on integers; Fractions appear only in the two views
  of ``solve_exact``'s outcome, ``solution`` and ``nullspace``, built when
  read. A square system is first tried on a certified
  float64 route (numeric-symbolic lifting, Wan 2006), a singular symmetric
  one on the block of its lex-first column basis, which one Cholesky factor
  of ``M M`` steers; every other system, and every one the route refuses,
  takes Bareiss elimination on Python ints. Both give the same outcome,
  proved by the same exact certificates, and LAPACK output never decides
  one. The max-min accepts only families whose kernel vectors sum to zero,
  as those of a consistent distance system do, so every level LP is
  bounded: one fraction-free simplex per level, certified by its dual,
  whose tableau also gives the next level's directions, so the max-min
  makes no exact solve. The Moore-Penrose solution is one exact solve of
  the system bordered by a kernel basis. So "singular", "inconsistent" and
  "optimal" are structural verdicts rather than tolerance calls;
* eigendecomposition runs in binary64 through LAPACK's symmetric
  eigensolver (``numpy.linalg.eigh``).

The integer rule, from ``solve_exact``'s outcome through the max-min: an
integer array is int64 exactly while a bound stated where it is made rules
out overflow, and Python ints past that bound. Every product of the solve's
certificates is ``integer_matmul``, float64 BLAS under a proven bound; the
max-min's run in int64 under its level bound. Scalars, and the Fractions of
every view, are Python ints.

Callers convert explicitly at the boundary. Everything here is a pure function
of its inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import ceil, gcd, isqrt, log, log2

import numpy as np

__all__ = [
    "SolveStatus",
    "SolveOutcome",
    "EigenDecomposition",
    "NonSymmetricMatrixError",
    "solve_exact",
    "symmetric_eigen",
    "pseudo_apply",
    "lp_max_min",
]

SYMMETRY_TOLERANCE = 1e-12
INT64_LIMIT = 2**63
# float64 holds every integer below this exactly, so a sum of such integers
# is exact in any order while every partial sum stays below it
FLOAT64_LIMIT = 2**53
# a nonsingular integer matrix has |det M| >= 1, so the float route's screen
# calls a matrix whose float64 log|det M| is below log(1/2) singular
_LOG_DET_FLOOR = log(0.5)
# how the float route steers its basis of a singular symmetric M (solve_exact's Notes, step 5)
_GRAM_SHIFT = 2.0**-40
_PIVOT_CUTOFF = 2.0**-30


class NonSymmetricMatrixError(ValueError):
    """Matrix handed to the eigensolver or ``pseudo_apply`` is not symmetric."""


class SolveStatus(Enum):
    UNIQUE = "unique"
    AFFINE = "affine"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Exact classification of a square linear system, as its certified integer form.

    ``solve_exact`` keeps the pivot columns, the free columns, and a read-only
    numerator matrix ``num`` over one common denominator ``den`` whose row t
    holds the entries on pivot column t of the particular solution (column 0)
    and of kernel vector j (column 1 + j, which is 1 on free column j and 0 on
    the other free columns), int64 while every entry is below 2^63. The rest
    is read off this form in integers (``particular``, ``kernel_rows`` and
    ``kernel_sum_numerators``), except ``solution`` (the unique solution if
    UNIQUE, one particular solution if AFFINE, None if INCONSISTENT) and
    ``nullspace`` (an exact kernel basis, for every status): Fraction views of
    ``particular`` and ``kernel_rows``, each built on first access. An
    outcome is read-only, as callers share it.
    """

    status: SolveStatus
    pivot_cols: list[int]
    free_cols: list[int]
    num: np.ndarray
    den: int

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def nullspace_dimension(self) -> int:
        return len(self.free_cols)

    @cached_property
    def solution(self) -> tuple[Fraction, ...] | None:
        """``particular`` as Fractions, one object per distinct value; None if INCONSISTENT."""
        if self.particular is None:
            return None
        values = self.particular[0].tolist()
        return tuple(map(_fractions(values, self.den).__getitem__, values))

    @cached_property
    def nullspace(self) -> tuple[tuple[Fraction, ...], ...]:
        """``kernel_rows`` as Fractions: vector j is ``kernel_rows[j] / kernel_rows[j, free_j]``."""
        rows = zip(self.kernel_rows.tolist(), self.free_cols)
        return tuple(tuple(Fraction(v, row[f]) for v in row) for row, f in rows)

    @cached_property
    def particular(self) -> tuple[np.ndarray, int] | None:
        """The certified particular solution as ``(nums, den)``, None if INCONSISTENT:
        ``solution[i] == nums[i] / den``, ``nums`` read-only in column order (0 on every free
        column) and ``den`` not reduced; ``solve_exact`` proved ``M nums == den * rhs`` on every row."""
        if self.status is SolveStatus.INCONSISTENT:
            return None
        nums = np.zeros(self.rank + self.nullspace_dimension, dtype=self.num.dtype)
        nums[self.pivot_cols] = self.num[:, 0]
        nums.setflags(write=False)
        return nums, self.den

    @cached_property
    def kernel_rows(self) -> np.ndarray:
        """The nullspace as integer rows, row j the smallest positive multiple of vector j (small
        integers for the max-min simplex), int64 while ``den`` and ``num[:, 1:]`` are below 2^63."""
        k, kernel = self.nullspace_dimension, self.num[:, 1:]
        rows = np.zeros((k, self.rank + k), dtype=_int_dtype(max(_absmax(kernel), self.den)))
        rows[:, self.pivot_cols] = kernel.T
        rows[np.arange(k), self.free_cols] = self.den
        rows //= np.gcd.reduce(rows, axis=1, keepdims=True)
        rows.setflags(write=False)
        return rows

    @cached_property
    def kernel_sum_numerators(self) -> list[int]:
        """Entry sum of each nullspace vector as a Python int numerator over ``den``:
        ``sum of num[:, 1+j] + den``. The column sums of ``num``, within ``rank |num|``,
        are int64 while that is below 2^63."""
        kernel = self.num[:, 1:]
        return [s + self.den for s in kernel.sum(0, dtype=_int_dtype(self.rank * _absmax(kernel))).tolist()]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (descending) with matching orthonormal eigenvector columns.

    ``offdiagonal_residual`` is ``max_{i != j} |(V^T M V)_ij|`` for the
    symmetrized input M and the eigenvector matrix V: how far V falls short of
    diagonalizing M.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    offdiagonal_residual: float

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _fractions(values: list[int], den: int) -> dict[int, Fraction]:
    """``value -> Fraction(value, den)``, one Fraction per distinct value."""
    return {v: Fraction(v, den) for v in set(values)}


# operator.index refuses every non-integer entry, where int() would truncate 0.5
_index = np.frompyfunc(operator.index, 1, 1)


def _integers(values, shape: tuple[int, ...]) -> np.ndarray | None:
    """``values`` as an integer array of ``shape``, None if its shape differs: an int or
    uint ndarray as it is, anything else as an object array (``np.asarray`` would make
    ``[[2**63, 1], [1, 1]]`` float64) whose entries, once its shape is right, pass ``_index``.
    A ragged input, whose rows are left as entries, counts as a shape that differs."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values if values.shape == shape else None
    a = np.array(values, dtype=object)
    if a.shape != shape:
        return None
    try:
        return _index(a)
    except TypeError:
        if any(np.ndim(x) for x in a.flat):
            return None
        raise


def _absmax(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array (int64 or Python ints), 0 if empty."""
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def _int_dtype(bound: int):
    """int64 if ``bound`` (on every value of a computation) is below 2^63, else Python ints."""
    return np.int64 if bound < INT64_LIMIT else object


def _fitted(a: np.ndarray) -> np.ndarray:
    """Integer array ``a`` in int64 when every entry is below 2^63 in magnitude, else in Python ints."""
    return a.astype(_int_dtype(_absmax(a)), copy=False)


def integer_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact ``a @ x`` of a 2-D integer array and a 1-D or 2-D one, on float64 BLAS.

    The one rule for exact integer products here, as in FFLAS-FFPACK (Dumas,
    Giorgi and Pernet 2008): float64 holds every integer below 2^53, so a
    product whose every partial sum is such an integer is exact in any
    summation order. With k the inner dimension:

    * ``max(|a| |x| k, |a|, |x|) < 2^53``: one float64 matmul, returned as
      int64. The ``|a|`` and ``|x|`` terms keep an entry that float64 cannot
      hold out of it even when the other operand is 0;
    * otherwise, while ``|a| k < 2^52``: x is cut into signed limbs,
      ``x = sum_l y_l 2^(s l)`` with ``|y_l| < 2^s`` and
      ``s = 53 - bitlen(|a| k) >= 1``, so every partial sum of ``a y_l`` is
      below ``2^bitlen(|a| k) 2^s = 2^53``. One float64 matmul over the
      stacked limbs gives every ``a y_l``, below 2^53, which
      ``_combine_digits`` joins, most significant first, as int64 digits s bits apart;
    * beyond that, Python ints throughout.

    An ``a`` with no rows or only zeros gives int64 zeros at once, as the
    first case gives int64; the limbs give int64 when one of
    ``_combine_digits``' runs holds them all, Python ints otherwise, and the
    last case Python ints.
    """
    a_max, x_max = _absmax(a), _absmax(x)
    k = a.shape[1]
    if not a_max:
        return np.zeros(a.shape[:1] + x.shape[1:], dtype=np.int64)
    if max(a_max * x_max * k, a_max, x_max) < FLOAT64_LIMIT:
        return (a.astype(np.float64) @ x.astype(np.float64)).astype(np.int64)
    if a_max * k >= FLOAT64_LIMIT // 2:
        return a.astype(object) @ x.astype(object)
    s = 53 - (a_max * k).bit_length()
    cols = x.reshape(k, -1).astype(object)
    negative, rest, mask = cols < 0, np.abs(cols), (1 << s) - 1
    limbs = []
    for _ in range(-(-x_max.bit_length() // s)):
        limb = (rest & mask).astype(np.float64)
        np.negative(limb, out=limb, where=negative)
        limbs.append(limb)
        rest >>= s
    products = (a.astype(np.float64) @ np.concatenate(limbs[::-1], axis=1)).astype(np.int64)
    out = _combine_digits(np.hsplit(products, len(limbs)), s)
    return out.reshape(a.shape[:1] + x.shape[1:])


def _columns_hold(lhs: np.ndarray, x: np.ndarray, den: int, rhs: np.ndarray) -> np.ndarray:
    """Per column, whether ``lhs @ x == den * rhs`` holds in exact integers; may scale ``rhs`` in place."""
    target = rhs.astype(_int_dtype(max(abs(den) * _absmax(rhs), abs(den))), copy=False)
    target *= den
    return np.asarray(integer_matmul(lhs, x) == target, dtype=bool).all(axis=0)


def _convergent_denominator(z: int, bits: int, tol: int, limit: int) -> int | None:
    """Denominator of the first convergent p/q of ``z / 2^bits`` with
    ``|z q - p 2^bits| <= tol q``, None if q would pass ``limit`` first.

    That distance is the Euclidean remainder left after the convergent, so
    the numerators p are never formed.
    """
    q0, q1 = 1, 0
    num, den = z, 1 << bits
    while den:
        a, rem = divmod(num, den)
        q0, q1 = q1, a * q1 + q0
        if q1 > limit:
            return None
        if rem <= tol * q1:
            return q1
        num, den = den, rem
    return None


def _reconstruct_dyadic(acc: np.ndarray, bits: int, err: int, den: int = 1) -> tuple[np.ndarray, int] | None:
    """``(num, den)`` from approximations ``acc / 2^bits`` of a vector x, each within ``err / 2^bits``.

    With ``Q = isqrt((2^bits - 1) // (2 err))``, two distinct fractions with
    denominators at most Q are more than ``2 err / 2^bits`` apart, so each
    entry has at most one such fraction within the error, and by Legendre's
    theorem it is a convergent of the approximation. One common denominator
    is grown entry by entry from ``den``, as in Wang's rational
    reconstruction (1981): each entry multiplies it by the denominator of
    the first convergent of ``den * acc_i / 2^bits`` within
    ``den * err / 2^bits``, searched up to ``Q / den``, or by 1 at once when
    ``den`` already makes the entry an integer. When the lcm of x's
    denominators is at most Q and a multiple of the starting ``den``, the
    result is that lcm and ``num`` is ``den * x``; otherwise the caller's
    exact check fails. None when some entry has no such convergent, which
    needs more bits.

    While ``den |acc| + 2^bits < 2^63``, an int64 ``acc`` is walked only on
    the entries the starting ``den`` leaves off an integer: one within
    ``tol`` is within ``q tol`` once ``den`` is ``q den``. ``num`` is int64
    while ``den |acc| + 2^(bits-1) < 2^63``, else Python ints.
    """
    one, half = 1 << bits, 1 << (bits - 1)
    limit = isqrt((one - 1) // (2 * err))
    tol = den * err
    values, walk = acc.tolist(), range(len(acc))
    if acc.dtype != object and den * _absmax(acc) + one < INT64_LIMIT:
        rem = den * acc & (one - 1)
        walk = np.flatnonzero(np.minimum(rem, one - rem) > tol).tolist()
    for i in walk:
        z = den * values[i]
        rem = z & (one - 1)
        if min(rem, one - rem) <= tol:
            continue
        q = _convergent_denominator(z, bits, tol, limit // den)
        if q is None:
            return None
        den *= q
        tol = den * err
    if acc.dtype != object and den * _absmax(acc) + half >= INT64_LIMIT:
        acc = acc.astype(object)
    return (den * acc + half) >> bits, den


def _combine_digits(digits: list[np.ndarray], k: int) -> np.ndarray:
    """``sum_j digits[j] 2^(k (T - 1 - j))`` per entry, for T int64 digit arrays, most
    significant first, each entry below 2^62 in magnitude.

    Horner's rule runs in int64 over runs of g digits, g the largest with
    ``top 2^(k (g - 1) + 1) < 2^63`` for ``top`` the digits' largest magnitude,
    which bounds every partial sum of a run. The runs are cut from the least significant
    end, so only the most significant one can be short, and neighbouring runs are joined
    pairwise on Python ints, ``k g 2^level`` bits apart at each level. A single run stays int64.
    """
    top = max(map(_absmax, digits))
    g = (62 - top.bit_length()) // k + 1
    runs = []
    for end in range(len(digits), 0, -g):
        run = digits[max(end - g, 0):end]
        out = run[0]
        for y in run[1:]:
            out = (out << k) + y
        runs.append(out)
    shift = k * g
    while len(runs) > 1:
        joined = [lo + (hi.astype(object, copy=False) << shift) for lo, hi in zip(runs[::2], runs[1::2])]
        runs, shift = joined + runs[len(joined) * 2:], 2 * shift
    return runs[0]


def _certificate(mf: np.ndarray, x: np.ndarray, s: int, scale: int) -> tuple[int, int] | None:
    """``(delta, ||X||_inf)`` when ``scale |X| < 2^53`` and ``E = 2^s I - M X`` has every absolute
    row sum ``delta < 2^(s-1)``; None otherwise.

    ``mf`` and ``x`` are float64 arrays of integers, and ``scale = n |M| >= n``.
    Once ``scale |X| < 2^53`` holds, every partial sum of ``M X`` is an
    integer below 2^53, so the product is exact, and so are the row sums of
    ``|X|``, below ``n |X| < 2^53``. The entries of ``M X - 2^s I`` and the
    row sums of their magnitudes are exact while they stay below 2^53, and
    rounding to nearest is monotone, so one that reaches 2^53 comes out at
    least 2^53: past ``2^(s-1)`` and refused. Every value returned is the
    exact integer one.
    """
    ax = np.abs(x)
    if scale * int(ax.max()) >= FLOAT64_LIMIT:
        return None
    e = mf @ x
    e.reshape(-1)[::len(e) + 1] -= 1 << s  # the diagonal, as a view of the product
    delta = int(np.abs(e, out=e).sum(axis=1).max())
    if 2 * delta >= 1 << s:
        return None
    return delta, int(ax.sum(axis=1).max())


def _solve_float(m: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], np.ndarray, int, bool] | None:
    """``_solve_fraction_free``'s tuple for a nonsingular M or a symmetric one, consistent or
    not, lifted on float64 BLAS; None to fall back.

    Numeric-symbolic lifting (Wan 2006; Saunders, Wood and Youse 2011):
    LAPACK's log-determinant, Cholesky factor and inverse only choose and
    steer the route, and exact integer checks prove the result.
    ``solve_exact``'s Notes give the screen, the basis choice, every
    certificate and every exactness bound.
    """
    n = len(m)
    scale = n * _absmax(m)
    if m.dtype == object or _absmax(b) > 4 * scale or 4 * scale >= FLOAT64_LIMIT:
        return None
    mf = m.astype(np.float64)
    log_det = np.linalg.slogdet(mf)[1]
    if log_det >= _LOG_DET_FLOOR:
        found = _lift_float(m, b[:, None], scale, log_det)
        if found is not None:
            return list(range(n)), [], *found, True
    # a symmetric M whose nonsingular attempt fails, singular or not, goes on to the steered basis
    if not np.array_equal(m, m.T):
        return None
    # the pivots of M^T M = M M steer the choice of the lex-first column basis J
    gram = mf @ mf
    top = gram.diagonal().max()
    gram.flat[::n + 1] += top * _GRAM_SHIFT
    try:
        pivots = np.square(np.linalg.cholesky(gram).diagonal())
    except np.linalg.LinAlgError:  # M = 0, or rounding past the shift
        return None
    basis = pivots > top * _PIVOT_CUTOFF
    cols, free_cols = np.flatnonzero(basis).tolist(), np.flatnonzero(~basis).tolist()
    if not cols:
        return None
    m_jj = m[np.ix_(cols, cols)]
    rhs = _targets(m, b, cols, free_cols)
    scale = max(len(cols) * _absmax(m_jj), -(-_absmax(rhs) // 4))
    # det(M_JJ)^2 <= det(M_.J^T M_.J), the product of J's pivots (Cauchy-Binet)
    found = _lift_float(m_jj, rhs, scale, np.log(pivots[basis]).sum() / 2)
    return None if found is None else _certify(m, b, cols, cols, free_cols, *found)


def _lift_float(m: np.ndarray, rhs: np.ndarray, scale: int, log_det: float) -> tuple[np.ndarray, int] | None:
    """``(num, den)`` with ``M num == den * rhs``, reduced by their gcd, for a certified
    nonsingular M; None to fall back. ``num`` is int64 when it fits, else Python ints.

    ``m`` and ``rhs`` are int64, ``scale >= max(k |M|, |rhs| / 4)`` with
    ``4 scale < 2^53``, and ``log_det`` estimates ``log|det M|`` to time the
    attempts. LAPACK's inverse of M in float64 only steers; one it refuses
    (an exactly zero pivot that slogdet's LU did not meet) falls back.
    """
    mf = m.astype(np.float64)
    try:
        inverse = np.linalg.inv(mf)
    except np.linalg.LinAlgError:
        return None
    # the largest magnitude is NaN or inf exactly when some entry is
    inverse_max = np.abs(inverse).max()
    if not np.isfinite(inverse_max):
        return None
    # X = rint(2^s inv M) with scale |X| < 2^53, so that M X is exact in float64
    s = min(52, int(np.floor(52 - np.log2(scale) - np.log2(inverse_max))))
    if s < 6:
        return None
    x = np.rint(np.ldexp(inverse, s))
    # ||E||_inf < 2^(s-1) proves ||I - M X 2^-s||_inf <= 1/2: M is nonsingular
    # and ||inv M||_inf <= 2 ||X||_inf 2^-s
    certified = _certificate(mf, x, s, scale)
    if certified is None:
        return None
    delta, x_norm = certified
    # 2^k delta <= 2^(s-2) and 2^(k-s) ||X||_inf 4 scale^2 < 2^51 make every step exact (Notes, step 3)
    k = min(s - 2 - delta.bit_length(), s + 51 - (4 * x_norm * scale * scale).bit_length())
    if k < 4:
        return None
    # den <= |det M| predicts the step count that suffices; past it, Hadamard's bound caps it
    err_bits = log2(2 * ((8 * x_norm * scale >> s) + 1))
    predicted = ceil((err_bits + 2 * log_det / log(2) + 2) / k)
    r, digits, head, steps, cap = rhs.astype(np.float64), [], [0, 0], 1, None
    while True:
        if steps > predicted:
            if cap is None:
                cap = ceil((err_bits + float(np.log2(np.square(mf).sum(axis=1)).sum()) + 8) / k)
            if steps > cap:
                return None
        while len(digits) < steps:
            # M N = 2^K rhs - r: y ~ 2^k inv(M) r, then r <- 2^k r - M y
            y = np.rint(np.ldexp(x @ r, k - s))
            r = np.ldexp(r, k) - mf @ y
            digits.append(y.astype(np.int64).ravel())
            head = [(h << k) + v for h, v in zip(head, digits[-1][:2].tolist())]
        # |x - N / 2^K| <= ||inv M||_inf |r| / 2^K; the first two entries probe it cheaply
        err = (2 * x_norm * int(np.abs(r).max()) >> s) + 1
        probe = _reconstruct_dyadic(np.array(head, dtype=object), k * steps, err)
        if probe is not None:
            found = _reconstruct_dyadic(_combine_digits(digits, k), k * steps, err, probe[1])
            if found is not None:
                num, den = _fitted(found[0]).reshape(rhs.shape), found[1]
                if _columns_hold(m, num, den, rhs.copy()).all():
                    g = gcd(den, *num.ravel().tolist())
                    return num // g, den // g
        steps = min(2 * steps, predicted) if steps < predicted else steps + max(1, steps // 4)


def _targets(m: np.ndarray, b: np.ndarray, rows: list[int], free_cols: list[int]) -> np.ndarray:
    """A new ``[b_I | -M_I,free]`` on rows I: what ``M_IJ`` times the numerators must give, over ``den``."""
    target = np.empty((len(rows), len(free_cols) + 1), dtype=m.dtype)
    target[:, 0] = b[rows]
    np.negative(m.take(rows, 0).take(free_cols, 1), out=target[:, 1:])
    return target


def _certify(
    m: np.ndarray, b: np.ndarray, rows: list[int], pivot_cols: list[int], free_cols: list[int],
    num: np.ndarray, den: int,
) -> tuple[list[int], list[int], np.ndarray, int, bool] | None:
    """``(pivot_cols, free_cols, num, den, consistent)`` once ``M_IJ num == den * _targets(I)``
    holds on the rows I; None unless the kernel vector of free column f is 0 on every later
    pivot column (the lex-first basis) and the kernel columns hold on the other rows too.

    One comparison of ``M_.J num`` with ``den * _targets`` on the other rows
    checks every column: each kernel column must hold, and column 0 decides
    consistency.
    """
    later = np.array(pivot_cols, dtype=int)[:, None] > np.array(free_cols, dtype=int)[None, :]
    if np.any(num[:, 1:][later] != 0):
        return None
    other_rows = sorted(set(range(len(m))) - set(rows))
    holds = _columns_hold(m.take(pivot_cols, 1).take(other_rows, 0), num, den,
                          _targets(m, b, other_rows, free_cols))
    if not holds[1:].all():
        return None
    return pivot_cols, free_cols, num, den, bool(holds[0])


def _solve_fraction_free(m: np.ndarray, b: np.ndarray) -> tuple[list[int], list[int], np.ndarray, int, bool]:
    """``_certify``'s tuple for any system, by Bareiss elimination (1968) on Python ints.

    Each column pivots on the first open row with a nonzero entry there, so
    the pivot columns J are the lex-first column basis and the pivot rows I
    the lex-first row basis (``solve_exact``'s Notes). Every entry of an
    open row stays a minor of ``[M | b]`` and every division is exact, and
    the last pivot d is ``det M_IJ`` up to sign. By Cramer's rule
    ``d [x | Z]`` is integral for ``M_IJ [x | Z] = [b_I | -M_I,free]``, so one
    back-substitution on the pivot rows finds it in exact divisions. The
    float route's checks prove the result.
    """
    n = len(m)
    a = np.concatenate([m, b[:, None]], axis=1).astype(object)
    open_rows, echelon, rows, cols, d = list(range(n)), [], [], [], 1
    for c in range(n):
        nonzero = np.flatnonzero(a[:, c])
        if not nonzero.size:
            continue
        i = int(nonzero[0])
        pivot = a[i]
        echelon.append(pivot)
        rows.append(open_rows.pop(i))
        cols.append(c)
        a = np.delete(a, i, axis=0)
        # the open rows are 0 on every column before c and, after this step, on c
        a[:, c:] = (pivot[c] * a[:, c:] - np.outer(a[:, c], pivot[c:])) // d
        d = pivot[c]
    free_cols = sorted(set(range(n)) - set(cols))
    u = np.array(echelon, dtype=object).reshape(len(rows), n + 1)
    rhs = np.concatenate([u[:, n:], -u[:, free_cols]], axis=1)
    x = np.empty_like(rhs)
    for t in reversed(range(len(rows))):
        x[t] = (d * rhs[t] - u[t, cols[t + 1:]].dot(x[t + 1:])) // u[t, cols[t]]
    g = gcd(d, *x.ravel().tolist()) * (1 if d > 0 else -1)
    num, den = _fitted(x // g), d // g
    found = _columns_hold(m[rows][:, cols], num, den, _targets(m, b, rows, free_cols)).all() \
        and _certify(m, b, rows, cols, free_cols, num, den)
    if not found:
        raise RuntimeError("the fraction-free solve failed its exact certificate")
    return found


def solve_exact(matrix, rhs) -> SolveOutcome:
    """Classify and solve ``M x = rhs`` over exact rationals.

    Parameters
    ----------
    matrix : square 2-D array or nested sequence of integer entries
    rhs : 1-D array or sequence of integers, one per matrix row

    Any other entry (a float, a Fraction) raises TypeError; a ragged, 1-D or
    non-square matrix, or an rhs of another shape, raises ValueError.

    Returns
    -------
    SolveOutcome
        Status UNIQUE, AFFINE (particular solution plus exact kernel basis),
        or INCONSISTENT. No tolerances are involved anywhere.

    Notes
    -----
    Two routes give the same outcome, and the first that succeeds is taken.

    **The float route** (numeric-symbolic lifting: Wan, J. Symb. Comp. 2006;
    Saunders, Wood and Youse, ISSAC 2011) is tried first. For a nonsingular
    M it proves M nonsingular and then gives UNIQUE with pivot columns
    ``0..n-1``, no free columns, and ``(num, den)`` reduced by their common
    gcd, which makes ``den`` the lcm of the solution's denominators, as the
    fallback's reduction does. A singular symmetric M, and a symmetric one
    whose steps 2-4 fail, takes steps 5-7 below. With ``scale = n |M|``:

    1. screen: M is int64, ``|b| <= 4 scale`` and ``4 scale < 2^53``, and
       ``numpy.linalg.slogdet`` of the float64 matrix gives
       ``log|det M| >= log(1/2)``, since a nonsingular integer matrix has
       ``|det M| >= 1``. LAPACK output only chooses the route;
    2. nonsingularity certificate: ``X = rint(2^s inv(M))``, from
       ``numpy.linalg.inv``, with ``s <= 52`` taken from the largest entry
       of the inverse so that ``scale |X| < 2^53`` (checked on the exact
       integer ``|X|``). Every partial sum of ``M X`` is then an integer
       below 2^53, so the float64 product is exact in any order, and so are
       the row sums of ``|X|``, below ``n |X| <= scale |X|``, which give
       ``||X||_inf``. ``E = 2^s I - M X`` and its absolute row sums are
       formed in float64 too: each is exact while below 2^53, and rounding
       is monotone, so one that reaches 2^53 still comes out past
       ``2^(s-1)``. Every absolute row sum of E below ``2^(s-1)`` therefore
       holds in exact integers and proves
       ``||I - M X 2^-s||_inf = delta <= 1/2``, so M is nonsingular and
       ``||inv M||_inf <= 2 ||X||_inf 2^-s``;
    3. lifting: with ``M N = 2^K b - r`` (``N = 0``, ``r = b`` at first),
       each step takes ``y = rint(2^(k-s) X r)`` and sets
       ``r <- 2^k r - M y``, ``N <- 2^k N + y``, ``K <- K + k``, with ``k``
       the largest such that ``2^k delta <= 1/4`` and
       ``2^(k-s) ||X||_inf 4 scale^2 < 2^51``. The certificate proves every
       step exact, by induction from ``|b| <= 4 scale``: as ``scale >= n``,
       the float64 rounding of ``2^(k-s) X r`` is within about
       ``n 2^-2 / scale <= 1/4``, so ``y = 2^(k-s) X r + rho`` with
       ``|rho| <= 3/4``, and the new ``r = 2^(k-s) (2^s I - M X) r - M rho``
       has ``|r| <= |r| / 4 + 3 scale / 4 < 4 scale``. Every digit is then
       within ``2^(k-s) ||X||_inf 4 scale + 1``, so
       ``scale |y| < 2^51 + scale < 2^52`` and ``M y`` is exact, and
       ``||X||_inf >= 2^(s-1) / scale``, as ``||M X||_inf >= 2^(s-1)``,
       gives ``|2^k r| < 2^52``: the new r is exact too. ``_combine_digits`` joins
       the int64 digits only at a reconstruction, reading their largest magnitude;
    4. reconstruction: ``|x - N / 2^K| <= 2 ||X||_inf |r| / 2^(s+K)``. One
       common denominator is built entry by entry from continued
       fractions of ``N_i / 2^K`` whose denominators are small enough for
       the closest one to be the only one within that error
       (``_reconstruct_dyadic``). Attempts come after 1, 2, 4, ...
       steps up to the count that ``den <= |det M|`` predicts from the
       log-determinant, enough whenever that float64 value is close, then
       after a quarter more steps each. The first two entries alone are
       tried first, so an attempt with too few bits costs little, and a
       solution whose denominator is far below ``|det M|``, as on trees,
       ends early; in int64, only the entries that the first two leave off
       an integer are walked. Only ``M num == den b`` on every row, in
       exact integers, ends the loop; with M nonsingular, that proves
       ``num / den`` is the solution. Hadamard's bound, which caps the step
       count, is computed only once the predicted count has passed.

    Steps 2-4 need only ``scale >= k |M|`` (k the dimension) and
    ``|b| <= 4 scale < 2^53``, and take one column per right-hand side. A
    symmetric M that the screen calls singular, or whose steps 2-4 fail,
    goes on:

    5. steering: one ``numpy.linalg.cholesky`` of the Gram matrix
       ``M M = M^T M`` plus ``2^-40 max(diag) I`` (``_GRAM_SHIFT``). Its
       squared pivot on column j is the squared distance of column j from
       the columns before it, so J, the columns whose squared pivot exceeds
       ``2^-30 max(diag)`` (``_PIVOT_CUTOFF``, ``9.3e-10``), is taken for
       the lex-first column basis. Over the 734 distance matrices of the
       four benchmark workloads at seeds 1 and 7919, dependent columns
       reached at most ``9.6e-11 max(diag)`` and independent ones at least
       ``1.4e-8 max(diag)`` (``1.2e-5`` on the 267 singular ones, the only
       ones steered). J only steers;
    6. with J a column basis, ``M = M_.J C`` gives ``M_J. = M_JJ C``, and
       ``rank M_J. = rank M_.J = |J|`` (M symmetric) makes ``M_JJ``
       nonsingular. Steps 2-4 solve ``M_JJ [x | Z] = [b_J | -M_J,free]``
       with ``scale = max(|J| |M_JJ|, ceil(|RHS| / 4))`` (``johnson:10,4``
       has ``|b| = 210 > 4 * 10 * 4``), and with half the log of the
       product of J's squared pivots for the log-determinant
       (``det(M_.J^T M_.J) >= det(M_JJ)^2``, Cauchy-Binet);
    7. ``_certify``, which both routes call: on the rows outside J, in
       exact integers, the kernel check ``M_.J Z == -den * M_.free``, the
       lex-first check that kernel vector f is 0 on every pivot column
       after f, and ``M_.J x == den * b``, which decides consistency. The
       certified ``M_JJ`` stands in for ``M_IJ`` there, and for a
       symmetric M the fallback's pivot rows I are J (the lemma below),
       so both routes solve the same block, and the outcome, consistent or
       not, is the fallback's.

    Every other case falls back: a singular M that is not symmetric, M
    with an entry past int64 or past the screen's bounds, a Cholesky factor
    LAPACK refuses (M = 0), an empty J, an inverse LAPACK refuses or
    returns non-finite, ``s < 6``, a failed certificate (as when J holds a
    dependent column), fewer than 4 bits per step, more steps than
    Hadamard's bound on ``|det M|`` can need, a failed kernel or lex-first
    check (as when J misses an independent column).

    **The fallback** (``_solve_fraction_free``) eliminates ``[M | b]``
    fraction-free on Python ints (Bareiss 1968), each column pivoting on
    its first open row with a nonzero entry, which gives the pivot rows I
    and the lex-first pivot columns J, and back-substitutes
    ``M_IJ [x | Z] = [b_I | -M_I,free]`` over the last pivot, then reduces
    ``(num, den)`` by their gcd with ``den > 0``. The particular solution
    has every free variable 0, and kernel vector j has free variable j
    equal to 1. It costs O(n^3) operations on integers as long as the
    minors of M, against float64 BLAS on the float route, so it is far
    slower from n in the tens on; no benchmark workload reaches it. The
    float route's checks prove its result too: ``M_IJ [x | Z]`` equals
    ``den [b_I | -M_I,free]`` on the rows I, and step 7 on the others.

    Either way, ``M_IJ`` is nonsingular (by the certificate of step 2, or
    the fallback's nonzero last pivot, ``det M_IJ`` up to sign); the kernel
    check puts every column in the span of J's, which proves the rank, and
    the lex-first check proves J is the lex-first column basis. The basis
    fixes the particular solution and the kernel basis, so the outcome
    equals that of any elimination that pivots on the lex-first columns.
    With both checks passing, ``M_.J x == den * b`` failing on a row
    certifies INCONSISTENT: any solution would have to be this x.

    Lemma: the fallback's pivot rows I are the lex-first row basis, the
    rows not in the span of the rows before them. Proof: at column c, an
    open row's reduced entry is nonzero exactly when the row's first c + 1
    entries lie outside the span of the pivot rows' first c + 1 entries.
    Every open row before the chosen row r lies inside that span, so r lies
    outside the span of all rows before it. Hence every pivot row is in the
    lex-first row basis, and as both have the rank's size, they are equal.
    For a symmetric M that basis is the lex-first column basis, the
    certified J, so I = J: an inconsistent system's particular column and
    ``den`` are those of the block ``M_JJ``, whichever route solves it.

    Exactness and overflow bounds. An array is int64 exactly while a stated
    bound rules out overflow, Python ints past it: M and b share one dtype,
    int64 while every entry is below 2^63; the fallback eliminates on Python
    ints; either route's numerators are int64 from the reconstruction on
    while they are below 2^63. Every certificate's product is
    ``integer_matmul``: one float64 product while every partial sum is
    below 2^53, float64 limbs or Python ints beyond; ``A X == den * T``
    forms ``den T`` in int64 when ``den |T| < 2^63``. The outcome keeps this
    certified integer form; no Fraction is built here.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    m = _integers(matrix, (n, n))
    if m is None:
        raise ValueError("matrix must be square")
    b = _integers(rhs, (n,))
    if b is None:
        raise ValueError(f"rhs length does not match matrix size {n}: need one integer per row")
    dtype = _int_dtype(max(_absmax(m), _absmax(b)))
    m, b = np.ascontiguousarray(m, dtype=dtype), np.ascontiguousarray(b, dtype=dtype)
    pivot_cols, free_cols, num, den, consistent = _solve_float(m, b) or _solve_fraction_free(m, b)
    num.setflags(write=False)
    status = SolveStatus.AFFINE if free_cols else SolveStatus.UNIQUE
    return SolveOutcome(status if consistent else SolveStatus.INCONSISTENT, pivot_cols, free_cols, num, den)


def symmetric_eigen(matrix) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    The input is checked for symmetry within ``SYMMETRY_TOLERANCE`` and then
    symmetrized as ``(M + M^T) / 2``. Eigenpairs come back sorted by
    eigenvalue, descending. The reported residual is the largest off-diagonal
    magnitude of ``V^T M V``.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOLERANCE:
        raise NonSymmetricMatrixError(
            f"matrix is not symmetric within {SYMMETRY_TOLERANCE:g} absolute"
        )
    a = (a + a.T) / 2.0
    lam, v = np.linalg.eigh(a)
    lam, v = lam[::-1], v[:, ::-1]
    rotated = v.T @ a @ v
    np.fill_diagonal(rotated, 0.0)
    return EigenDecomposition(lam, v, float(np.abs(rotated).max(initial=0.0)))


def pseudo_apply(matrix, rhs, kernel) -> tuple[np.ndarray, int]:
    """The Moore-Penrose solution ``M^+ rhs`` of a symmetric integer matrix, exactly.

    ``kernel`` holds an integer basis Z of ``ker M`` as rows, as
    ``SolveOutcome.kernel_rows`` does for every status. Returns ``(nums, den)``
    with ``M^+ rhs == nums / den``. A non-symmetric M (NonSymmetricMatrixError),
    a row with ``M z != 0``, a dependent or incomplete basis, or a length
    mismatch raises ValueError; a non-integer entry raises TypeError.

    One ``solve_exact`` of ``[[M, Z^T], [Z, 0]] [x; c] = [rhs; 0]``, which for
    symmetric M is nonsingular exactly when the rows of Z are a basis of
    ``ker M = range(M)^perp``. Then ``M x = rhs - Z^T c`` is the projection of
    rhs on ``range(M)`` and ``Z x = 0`` puts x in ``range(M)``: ``x = M^+ rhs``.
    """
    n = len(matrix)
    m = _integers(matrix, (n, n))
    if m is None or not np.array_equal(m, m.T):
        raise NonSymmetricMatrixError("matrix must be square and symmetric")
    b = _integers(rhs, (n,))
    if b is None:
        raise ValueError(f"rhs length does not match matrix size {n}")
    z = _integers(kernel, (len(kernel), n)) if len(kernel) else np.zeros((0, n), dtype=np.int64)
    if z is None:
        raise ValueError(f"every kernel row needs {n} entries")
    if integer_matmul(m, z.T).any():
        raise ValueError("a kernel row z has M z != 0")
    outcome = solve_exact(np.block([[m, z.T], [z, np.zeros((len(z), len(z)), dtype=z.dtype)]]),
                          np.concatenate([b, np.zeros(len(z), dtype=b.dtype)]))
    if outcome.status is not SolveStatus.UNIQUE:
        raise ValueError("the kernel rows are not a basis of the matrix kernel")
    nums, den = outcome.particular
    return nums[:n], den


# ---------------------------------------------------------------------------
# Exact simplex and the max-min canonical solution
# ---------------------------------------------------------------------------


def _pivots_in_int64(top: int) -> bool:
    """Whether one fraction-free pivot of a tableau with ``max|T| <= top`` stays below 2^63
    in int64: every value on the way to ``(p * T_i - T_ie * T_r) // d`` is within ``2 top^2``."""
    return 2 * top**2 < INT64_LIMIT


def _simplex_max(a, b, c) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Maximize ``c . x`` over ``{A x <= b}`` with x free, for integer A, b >= 0 and c.

    Dense tableau, free columns first, then Bland's rule (guaranteed
    termination). Returns ``(x, y, d, face)``, arrays in the final tableau's
    dtype and the Python int ``d > 0``: ``x / d`` is optimal and ``y / d`` the
    optimal dual (``y >= 0``, ``A^T y = d c``, ``b . y = c . x``), read off
    the slack columns of the final objective row. The rows of ``face`` are
    independent and span the optimal face's directions
    ``{dx : A_i dx = 0 wherever y_i > 0}``, so ``c . dx = 0``, up to those of
    free columns that depend on earlier ones.
    Callers must shift the problem so b >= 0, so that the all-slack basis is
    feasible and no phase-1 is needed, and must pose a bounded LP: an
    entering column that no row blocks fails an assertion.

    Notes
    -----
    The tableau ``[A | I | b]`` over the objective row ``[-c | 0 | 0]`` is
    pivoted fraction-free (Edmonds 1967), the simplex form of the Bareiss
    elimination (1968). One shared denominator ``d``, starting at 1, is the
    determinant of the current basis up to sign: pivoting on
    ``p = T[r, e] > 0`` replaces every other row, the objective row
    included, by ``(p * T_i - T[i, e] * T_r) // d``, an exact division,
    keeps ``T_r`` and sets ``d = p``. Every entry is ``d`` times the entry of
    the rational tableau, a minor of ``[A | I | b]`` up to sign, and small
    on distance systems. So the tableau is int64 while
    ``2 max|T|^2 < 2^63``, checked before each pivot: that bounds
    ``p * T_i``, ``T[i, e] * T_r`` and their difference, so the pivot is
    exact. It is built in int64 when ``max(|A|, |b|, |c|)`` passes the
    check, and moves to Python ints for good at the first pivot it fails.
    The pivots and the result do not depend on the dtype; the ratio test
    compares ``T[i, rhs] / step_i`` by cross-multiplying Python integers.

    Each free column enters once, in order, upwards unless only a downward
    step is blocked (then the pivot row is negated first, so ``p > 0``); one
    that is 0 on every slack row depends on those already in and stays out
    at 0. Free variables never leave, so the ratio tests skip their rows. A
    basic ``x`` is ``T[i, rhs] / d``, the dual is ``y_i = T[obj, slack_i] / d``,
    and each nonbasic slack with ``y_i = 0`` gives a face row: its column on
    the rows of the free variables.
    """
    m, nv = len(b), len(c)
    a, b, c = _integers(a, (m, nv)), _integers(b, (m,)), _integers(c, (nv,))
    assert b.min(initial=0) >= 0, "simplex caller must shift to b >= 0"
    ncols, top = nv + m, max(map(_absmax, (a, b, c)))
    tab = np.zeros((m + 1, ncols + 1), dtype=np.int64 if _pivots_in_int64(top) else object)
    tab[:m, :nv] = a
    tab.reshape(-1)[nv:(ncols + 2) * m:ncols + 2] = 1  # the slack block's diagonal, as a view
    tab[:m, ncols] = b
    tab[m, :nv] = -c.astype(tab.dtype)
    basis, leaves = np.arange(nv, ncols), np.ones(m, dtype=bool)
    d = 1

    def entering():
        yield from range(nv)
        while (negative := (tab[m, nv:ncols] < 0).nonzero()[0]).size:
            yield nv + int(negative[0])

    for e in entering():
        # the rows that block a step along column e; a free variable never leaves
        step = tab[:m, e]
        block = (leaves & (step > 0)).nonzero()[0]
        if e < nv and not block.size:
            step = -step
            block = (leaves & (step > 0)).nonzero()[0]
        if not block.size:
            assert e < nv and tab[m, e] == 0, "simplex caller must pose a bounded LP"
            continue
        # smallest (rhs_i / step_i, basis_i), the ratios compared by cross-multiplying
        rhs, steps, labels = tab[block, ncols].tolist(), step[block].tolist(), basis[block].tolist()
        best = 0
        for i in range(1, len(block)):
            left, right = rhs[i] * steps[best], rhs[best] * steps[i]
            if left < right or (left == right and labels[i] < labels[best]):
                best = i
        r = int(block[best])
        # an int64 tableau is within the bound, so np.abs cannot wrap -2^63
        if tab.dtype != object and not _pivots_in_int64(int(np.abs(tab).max())):
            tab = tab.astype(object)
        if tab[r, e] < 0:
            tab[r] *= -1
        p, row, col = int(tab[r, e]), tab[r].copy(), tab[:, e, None].copy()
        tab *= p
        tab -= col * row
        tab //= d
        tab[r] = row
        d = p
        basis[r], leaves[r] = e, e >= nv

    # the tableau on the free variables, one row per variable (0 when nonbasic)
    on_x, rows = np.zeros((nv, ncols + 1), dtype=tab.dtype), ~leaves
    on_x[basis[rows]] = tab[:m][rows]
    nonbasic = np.ones(ncols, dtype=bool)
    nonbasic[basis] = False
    face = nv + (nonbasic[nv:] & (tab[m, nv:ncols] == 0)).nonzero()[0]
    return on_x[:, ncols], tab[m, nv:ncols], d, on_x[:, face].T


def lp_max_min(particular, nullspace) -> tuple[np.ndarray, int]:
    """Canonical point of an affine solution family: the lexicographic max-min.

    ``particular`` is a point as integer numerators over one denominator,
    ``(nums, den)``, and ``nullspace`` the family's directions as integer
    rows: exactly ``SolveOutcome.particular`` and ``SolveOutcome.kernel_rows``.
    Over ``w(c) = nums / den + sum_j c_j * nullspace_j`` this maximizes
    ``min_i w_i``, then the smallest entry among the coordinates not yet
    fixed, and so on (leximin). It returns that point as ``(nums, den)``,
    ``nums`` an integer array under step 2's bound. A non-integer entry
    raises TypeError, a row of another length or a nullspace row that does
    not sum to zero ValueError; then the leximin point exists and is unique,
    so the result does not depend on the nullspace basis or its scale.

    Notes
    -----
    Zero-sum vectors are the kernel of every consistent distance system:
    ``1 . v = w^T D v / n = 0`` for ``D`` symmetric and ``D w = n * 1``. They
    bound every level. A step along the face is 0 on the fixed coordinates
    and sums to 0, so it sums to 0 over the free ones, and the level value
    ``t`` can never exceed the mean of the free ``w_i``.

    The point is kept as a numerator array ``w`` over one denominator
    ``den``, and each direction as an integer row. Each level:

    1. coordinates that are 0 in every direction are constant on the face and
       stay fixed at their current value;
    2. one exact simplex maximizes ``t`` subject to ``w_i >= t`` over the
       other coordinates F, posed in numerators as
       ``[-dirs_F^T | 1] X <= w_F - t0`` (``t0`` the smallest free numerator);
       for its optimum ``x / d`` the point becomes
       ``(d w + x[:k] . dirs) / (d den)`` and the level value
       ``t_level = (d t0 + x[k]) / (d den)``. With ``top`` the largest of d,
       ``|x|``, ``|y|`` and ``|face|``, every value here and in steps 3-4 is
       within ``|F| top (d |w| + k top |dirs|)``, the level bound: they run
       in int64 while it is below 2^63;
    3. its dual ``y / d`` is certified on those numerators over ``d den``:
       ``y >= 0``, ``sum y = d``, ``dirs_F y = 0``, ``w_F . y = t_level d``
       and ``w_F >= t_level``; by complementary slackness every coordinate
       with ``y_i > 0`` equals ``t_level`` on the whole optimal face, and
       ``sum y = d`` pins at least one. One gcd then reduces ``w`` and ``den``;
    4. the directions are replaced by the simplex's face rows, ``face[:, :k] .
       dirs`` with each row divided by its gcd: independent steps that span
       the optimal face, each checked in integers to be 0 on the pinned
       coordinates, so the face dimension drops by at least one.

    With k nullspace vectors that is at most k simplex solves.
    """
    nums, den = particular
    w, den = _fitted(_integers(nums, (len(nums),))), operator.index(den)
    n = len(w)
    dirs = _integers(nullspace, (len(nullspace), n)) if len(nullspace) else np.zeros((0, n), dtype=np.int64)
    if dirs is None:
        raise ValueError(f"every nullspace row needs {n} entries")
    dirs = _fitted(dirs)
    if integer_matmul(dirs, np.ones(n, dtype=np.int64)).any():
        raise ValueError("every nullspace vector must sum to 0")

    while True:
        # a coordinate that is 0 in every direction is constant on the face
        free = dirs.any(axis=0).nonzero()[0]
        if not free.size:
            return w, den
        k, w_max, dirs_max = len(dirs), _absmax(w), _absmax(dirs)
        w_free, dirs_free = w[free], dirs[:, free]
        t0 = int(w_free.min())
        a = np.ones((len(free), k + 1), dtype=dirs.dtype)
        a[:, :k] = -dirs_free.T
        b = w_free.astype(_int_dtype(2 * w_max)) - t0  # within 2 |w|
        x, y, d, face = _simplex_max(a, b, np.eye(k + 1, dtype=np.int64)[k])
        # every entry and partial sum below is within |F| top (d |w| + k top |dirs|)
        top = max(d, _absmax(np.concatenate((x, y, face.ravel()))))
        dtype = _int_dtype(len(free) * top * (d * w_max + k * top * dirs_max))
        x, y, face, dirs, dirs_free, w = (np.asarray(v, dtype) for v in (x, y, face, dirs, dirs_free, w))
        w = d * w + x[:k] @ dirs
        t_level = d * t0 + int(x[k])
        den *= d

        # the dual certificate, on numerators over d * den, and the face
        # certificate: every new direction is 0 on the coordinates y pins
        pinned, w_free, duals = free[y.nonzero()[0]], w[free], y.tolist()
        face = face[:, :k] @ dirs
        face //= np.gcd.reduce(face, axis=1, keepdims=True)
        if not (
            min(duals) >= 0
            and sum(duals) == d
            and not (dirs_free @ y).any()
            and int(w_free @ y) == t_level * d
            and int(w_free.min()) >= t_level
            and not face[:, pinned].any()
        ):
            raise RuntimeError("max-min level failed its exact optimality certificate")
        # g divides every w_i, so it fits w's dtype unless w = 0
        g = gcd(den, int(np.gcd.reduce(w)))
        w //= g if w.any() else 1
        den //= g
        dirs = face
