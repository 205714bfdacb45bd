"""Simplex censuses, three ways.

* coordinate brute force over an exact embedding,
* tick-arithmetic brute force over a structured configuration,
* the closed-form structured count by simplex type.

Type breakdown by circle multiplicity: delta1 has all vertices on distinct
circles, delta2 has at least one same-circle pair and no triple, delta3 has
three vertices on one circle (k = 3 only).  Mixed simplices have squared
side 2*radius_sq, single-circle triangles 3*radius_sq.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .geometry import PointSet, sq_dist
from .exactnum import Quad3
from .formulas import count_polynomial
from .lenz import CircleConfig

QUARTER = "quarter"
THIRD = "third"
OTHER = "other"
ZERO = "zero"


@dataclass(frozen=True)
class CountReport:
    delta1: int
    delta2: int
    delta3: int
    side_length_sq: Optional[Fraction] = None

    @property
    def total(self) -> int:
        return self.delta1 + self.delta2 + self.delta3

    def to_json(self) -> dict:
        return {
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
            "total": self.total,
        }

    def to_csv_row(self) -> str:
        return f"{self.delta1},{self.delta2},{self.delta3},{self.total}"


def tick_chord_class(N: int, dt: int) -> str:
    """Chord class of a tick difference: quarter (90 deg), third (120 deg),
    zero, or other."""
    if N % 12 != 0:
        raise ValueError("modulus must be divisible by 12")
    dt %= N
    if dt == 0:
        return ZERO
    if dt in (N // 4, 3 * N // 4):
        return QUARTER
    if dt in (N // 3, 2 * N // 3):
        return THIRD
    return OTHER


def _tick_set(ticks: Sequence[int], N: int) -> set[int]:
    if N % 12 != 0:
        raise ValueError("modulus must be divisible by 12")
    return {t % N for t in ticks}


def count_good_pairs(ticks: Sequence[int], N: int) -> int:
    """Unordered same-circle pairs at 90 degrees (chord sqrt2 * radius).

    Each such pair is counted once, from the tick a quarter turn behind the
    other; ticks are taken modulo N and assumed distinct there.
    """
    S = _tick_set(ticks, N)
    return sum(1 for t in S if (t + N // 4) % N in S)


def count_inscribed_triangles(ticks: Sequence[int], N: int) -> int:
    """Tick triples pairwise at 120 degrees (inscribed equilateral triangles).

    Each triangle is seen once from each of its three vertices; ticks are
    taken modulo N and assumed distinct there.
    """
    S = _tick_set(ticks, N)
    third = N // 3
    return sum(
        1 for t in S if (t + third) % N in S and (t + 2 * third) % N in S
    ) // 3


def is_structured_simplex(
    config: CircleConfig, selection: Sequence[tuple[int, int]]
) -> bool:
    """Whether k labeled points (circle, tick) are pairwise equidistant.

    Cross-circle distances all equal sqrt(2)*radius, so a mixed selection is
    regular iff every same-circle pair sits at a quarter turn.  A selection
    on a single circle (possible only for k = 3) is regular iff all three
    pairs sit at a third of a turn.  Three points pairwise at 90 degrees on
    one circle cannot exist, so no mixed simplex uses three points of one
    circle.
    """
    if len(set(selection)) != len(selection):
        raise ValueError("selection points must be distinct")
    by_circle: dict[int, list[int]] = {}
    for ci, t in selection:
        by_circle.setdefault(ci, []).append(t)
    if len(by_circle) == 1:
        (ci, ticks), = by_circle.items()
        if len(ticks) != 3:
            return False
        N = config.components[ci].modulus
        return all(
            tick_chord_class(N, b - a) == THIRD for a, b in combinations(ticks, 2)
        )
    for ci, ticks in by_circle.items():
        if len(ticks) > 2:
            return False
        if len(ticks) == 2:
            N = config.components[ci].modulus
            if tick_chord_class(N, ticks[1] - ticks[0]) != QUARTER:
                return False
    return True


def _classify(selection: Sequence[tuple[int, int]]) -> str:
    mult: dict[int, int] = {}
    for ci, _ in selection:
        mult[ci] = mult.get(ci, 0) + 1
    worst = max(mult.values())
    if worst == 1:
        return "delta1"
    if worst == 2:
        return "delta2"
    return "delta3"


def _side_modes(config: CircleConfig, side_sq: Optional[Fraction]):
    """Which simplex families a side filter admits: (mixed, single_circle)."""
    if side_sq is None:
        return True, True
    return side_sq == 2 * config.radius_sq, side_sq == 3 * config.radius_sq


def _count_chunk(args) -> tuple[int, int, int]:
    config, k, first_indices, allow_mixed, allow_single = args
    points = config.labeled_points()
    d1 = d2 = d3 = 0
    for i in first_indices:
        for rest in combinations(range(i + 1, len(points)), k - 1):
            sel = [points[i]] + [points[j] for j in rest]
            if not is_structured_simplex(config, sel):
                continue
            kind = _classify(sel)
            if kind == "delta3":
                if allow_single:
                    d3 += 1
            elif allow_mixed:
                if kind == "delta1":
                    d1 += 1
                else:
                    d2 += 1
    return d1, d2, d3


def brute_force_structured(
    config: CircleConfig,
    k: int,
    side_sq: Optional[Fraction] = None,
    workers: int = 1,
) -> CountReport:
    """Exhaustive k-subset census over a structured configuration.

    The enumeration space may be split across worker processes, at most one
    per CPU; per-chunk counts are summed in fixed chunk order, so the result
    is independent of scheduling.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    workers = min(workers, os.cpu_count() or 1)
    allow_mixed, allow_single = _side_modes(config, side_sq)
    n = config.n
    indices = list(range(n))
    if workers <= 1 or n < 2 * workers:
        d1, d2, d3 = _count_chunk((config, k, indices, allow_mixed, allow_single))
    else:
        import multiprocessing  # imported here so serial runs do not load it

        chunks = [indices[w::workers] for w in range(workers)]
        with multiprocessing.Pool(workers) as pool:
            parts = pool.map(
                _count_chunk,
                [(config, k, ch, allow_mixed, allow_single) for ch in chunks],
            )
        d1 = sum(p[0] for p in parts)
        d2 = sum(p[1] for p in parts)
        d3 = sum(p[2] for p in parts)
    return CountReport(d1, d2, d3, side_length_sq=side_sq)


def count_structured(
    config: CircleConfig, k: int, side_sq: Optional[Fraction] = None
) -> CountReport:
    """Closed-form census from per-circle sizes, good pairs, and triangles.

    With s_i the circle sizes and g_i their good-pair counts, delta1 is
    [x^k] prod_i (1 + s_i x) and delta1 + delta2 is
    [x^k] prod_i (1 + s_i x + g_i x^2) (see formulas.count_polynomial);
    delta3 (k = 3 only) sums the per-circle inscribed-triangle counts.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    allow_mixed, allow_single = _side_modes(config, side_sq)
    d1 = d2 = d3 = 0
    if allow_mixed:
        sizes = [c.size for c in config.components]
        gp = [count_good_pairs(c.ticks, c.modulus) for c in config.components]
        d1, mixed = count_polynomial(sizes, gp, k)
        d2 = mixed - d1
    if k == 3 and allow_single:
        d3 = sum(
            count_inscribed_triangles(c.ticks, c.modulus) for c in config.components
        )
    return CountReport(d1, d2, d3, side_length_sq=side_sq)


def count_brute_force(
    P: PointSet, k: int, side_sq: Optional[Quad3] = None
) -> int:
    """Number of k-subsets of P that are regular simplices, by coordinates.

    With side_sq given, only simplices of that exact squared side count.
    """
    if len(P) < k:
        raise ValueError("need at least k points")
    n = len(P)
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = sq_dist(P.points[i], P.points[j])
    count = 0
    for sub in combinations(range(n), k):
        side = dist[sub[0]][sub[1]]
        if side.is_zero():
            continue
        if side_sq is not None and side != side_sq:
            continue
        if all(dist[a][b] == side for a, b in combinations(sub, 2)):
            count += 1
    return count
