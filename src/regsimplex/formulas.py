"""Closed-form counting functions and their maximization.

The partition-indexed count realized by the orthogonal-circle construction,
its maximum over near-balanced partitions, the compact value at nice
divisibility, the unit-side variant, and the asymptotic leading term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor
from typing import Optional, Sequence

from .lenz import theorem12_partition


@dataclass(frozen=True)
class FormulaResult:
    value: int
    argmax: Optional[tuple[tuple[int, ...], ...]] = None
    terms: Optional[tuple[int, int, int]] = None
    boundary_touched: Optional[bool] = None


def _good_pair_term(n_i: int) -> int:
    return n_i - (1 if n_i % 4 else 0)


def _triangle_term(n_i: int) -> int:
    p_i = n_i % 12
    return (n_i - p_i) // 3 + (p_i - 8 if p_i > 8 else 0)


def count_polynomial(
    sizes: Sequence[int], good_pairs: Sequence[int], k: int
) -> tuple[int, int]:
    """The k-th coefficients (e_k, c_k) of prod_i (1 + s_i x) and
    prod_i (1 + s_i x + g_i x^2), in one O(r*k) pass.

    With s_i the class sizes and g_i their same-circle good-pair counts,
    e_k counts the mixed simplices with all vertices on distinct circles and
    c_k all mixed simplices: each circle contributes no vertex, one of its
    s_i points, or one of its g_i good pairs.
    """
    e = [1] + [0] * k
    c = [1] + [0] * k
    for s, g in zip(sizes, good_pairs, strict=True):
        for j in range(k, 0, -1):
            e[j] += s * e[j - 1]
            c[j] += s * c[j - 1] + (g * c[j - 2] if j > 1 else 0)
    return e[k], c[k]


def eval_f_k(partition: tuple[int, ...], k: int) -> FormulaResult:
    """The three-summand count: distinct-circle products, good-pair terms,
    and (k = 3 only) per-circle triangle terms."""
    r = len(partition)
    if k < 3:
        raise ValueError("need k >= 3")
    if r < k:
        raise ValueError("need r >= k")
    if any(n_i < 0 for n_i in partition):
        raise ValueError("partition entries must be nonnegative")
    t1, mixed = count_polynomial(
        partition, [_good_pair_term(n_i) for n_i in partition], k
    )
    t3 = sum(_triangle_term(n_i) for n_i in partition) if k == 3 else 0
    return FormulaResult(value=mixed + t3, terms=(t1, mixed - t1, t3))


def eval_T2r_closed(n: int, r: int) -> FormulaResult:
    """Triangle count at the case-selected partition."""
    partition = theorem12_partition(n, r)
    res = eval_f_k(partition, 3)
    return FormulaResult(value=res.value, argmax=(tuple(sorted(partition)),), terms=res.terms)


def eval_corollary13(n: int, r: int) -> FormulaResult:
    """Compact value C(r,3)(n/r)^3 + (r-1)n^2/r + n/3, requiring 12r | n."""
    if r < 3:
        raise ValueError("need r >= 3")
    if n % (12 * r) != 0:
        raise ValueError("n must be divisible by 12r")
    m = n // r
    t1 = comb(r, 3) * m ** 3
    t2 = (r - 1) * n * n // r
    t3 = n // 3
    return FormulaResult(value=t1 + t2 + t3, terms=(t1, t2, t3))


def eval_unit_triangle_formula(partition: tuple[int, ...]) -> FormulaResult:
    """Triangles of the cross-circle side only: f_3 minus the triangle term."""
    res = eval_f_k(partition, 3)
    t1, t2, _ = res.terms
    return FormulaResult(value=t1 + t2, terms=(t1, t2, 0))


def asymptotic_leading(n: int, r: int, k: int) -> Fraction:
    """Exact rational leading term C(r,k)(n/r)^k."""
    if not r >= k >= 3:
        raise ValueError("need r >= k >= 3")
    return comb(r, k) * Fraction(n, r) ** k


def _nondecreasing_vectors(n: int, r: int, lo: int, hi: int):
    """Nondecreasing length-r vectors with entries in [lo, hi] summing to n."""

    def rec(remaining, slots, minv):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for v in range(max(minv, lo), hi + 1):
            if v * slots > remaining or remaining > hi * slots:
                break
            for rest in rec(remaining - v, slots - 1, v):
                yield (v,) + rest

    yield from rec(n, r, lo)


def maximize_f_k(n: int, r: int, k: int, window: int = 6) -> FormulaResult:
    """Exhaustive maximization over near-balanced partitions.

    Searches nondecreasing vectors with |n_i - n/r| <= window and reports
    the full tie set.  boundary_touched flags a maximizer with an entry at
    |n_i - n/r| >= window, in which case the caller should re-run with a
    wider window.
    """
    if not r >= k >= 3:
        raise ValueError("need r >= k >= 3")
    if window < 0:
        raise ValueError("window must be nonnegative")
    base = Fraction(n, r)
    lo = max(0, ceil(base - window))
    hi = floor(base + window)
    best: Optional[int] = None
    argmax: list[tuple[int, ...]] = []
    for vec in _nondecreasing_vectors(n, r, lo, hi):
        value = eval_f_k(vec, k).value
        if best is None or value > best:
            best, argmax = value, [vec]
        elif value == best:
            argmax.append(vec)
    if best is None:
        raise ValueError("empty search space; widen the window")
    touched = any(
        abs(v - base) >= window for vec in argmax for v in (vec[0], vec[-1])
    )
    return FormulaResult(
        value=best, argmax=tuple(argmax), boundary_touched=touched
    )
