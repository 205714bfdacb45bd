from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from regsimplex.exactnum import Quad3, cos30_table, sin30_table
from regsimplex.geometry import (
    PointSet,
    affine_span_dim,
    arrow_relation,
    circumcenter,
    is_regular_simplex,
    sq_dist,
    spans_orthogonal,
)
from regsimplex.hypergraph import Hypergraph
from regsimplex.lenz import Component, build_even_config, embed_config


def pt(*vals) -> tuple[Quad3, ...]:
    return tuple(Quad3.of(v) for v in vals)


def dodecagon_vertex(step: int, dim: int = 2, plane: int = 0) -> tuple[Quad3, ...]:
    coords = [Quad3.of(0)] * dim
    coords[2 * plane] = cos30_table(step % 12)
    coords[2 * plane + 1] = sin30_table(step % 12)
    return tuple(coords)


_P, _Q = pt(1, Fraction(1, 2)), (Quad3.of(0), Quad3.of(0, 1))


class TestValueSemantics:
    """The value classes: Quad3 with its own operators, the others through
    geometry.Value."""

    NAMESPACE = {
        c.__name__: c for c in (Fraction, Quad3, PointSet, Component, Hypergraph)
    }

    @pytest.mark.parametrize(
        "cls, fields, changed",
        [
            (Quad3, (Fraction(1, 2), Fraction(3)), (Fraction(1, 2), Fraction(-3))),
            (PointSet, (2, (_P, _Q)), (2, (_Q, _P))),
            (Component, ("circle", 12, (0, 3)), ("circle", 24, (0, 3))),
            (
                Hypergraph,
                (4, 3, frozenset({frozenset({0, 1, 2})})),
                (4, 3, frozenset({frozenset({0, 1, 3})})),
            ),
        ],
        # fixed ids: the names these cases were first collected under
        ids=[
            "Quad3-fields0-changed0",
            "PointSet-fields2-changed2",
            "Component-fields3-changed3",
            "Hypergraph-fields4-changed4",
        ],
    )
    def test_value(self, cls, fields, changed):
        x = cls(*fields)
        assert x == cls(*fields) and hash(x) == hash(cls(*fields))
        assert x != cls(*changed)
        assert x != fields and fields != x
        assert x.__eq__(object()) is NotImplemented
        # only the exact type compares, not a subclass with the same fields
        assert x.__eq__(type("Sub", (cls,), {"__slots__": ()})(*fields)) is NotImplemented
        assert not hasattr(x, "__dict__")
        assert eval(repr(x), self.NAMESPACE) == x


class TestPointSet:
    def test_point_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="point dimension does not match ambient dimension"):
            PointSet(3, (pt(0, 0, 0), pt(1, 0)))

    def test_repeated_point(self):
        with pytest.raises(ValueError, match="points must be pairwise distinct"):
            PointSet(2, (pt(0, 0), pt(1, 0), pt(0, 0)))


class TestSqDist:
    def test_unit_segment(self):
        assert sq_dist(pt(0, 0), pt(1, 0)) == Quad3.of(1)

    def test_adjacent_dodecagon_chord(self):
        # (1 - rt3/2)^2 + 1/4 = 2 - rt3
        d = sq_dist(dodecagon_vertex(0), dodecagon_vertex(1))
        assert d == Quad3.of(2, -1)
        assert abs(float(d) - 0.2679491924) < 1e-9

    def test_identity(self):
        p = dodecagon_vertex(5)
        assert sq_dist(p, p).is_zero()

    def test_symmetry(self):
        p, q = dodecagon_vertex(2), dodecagon_vertex(7)
        assert sq_dist(p, q) == sq_dist(q, p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sq_dist(pt(0, 0), pt(0, 0, 0))


class TestRegularSimplex:
    def test_orthogonal_axes(self):
        pts = [pt(1, 0, 0, 0), pt(0, 1, 0, 0), pt(0, 0, 1, 0)]
        assert is_regular_simplex(pts)

    def test_inscribed_triangle(self):
        # ticks 0, 4, 8: equilateral of side rt3
        pts = [dodecagon_vertex(s) for s in (0, 4, 8)]
        assert is_regular_simplex(pts)
        assert sq_dist(pts[0], pts[1]) == Quad3.of(3)

    def test_non_equilateral_triple(self):
        # ticks 0, 3, 6: chords 2, 2, 4
        pts = [dodecagon_vertex(s) for s in (0, 3, 6)]
        assert not is_regular_simplex(pts)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            is_regular_simplex([pt(0, 0)])


class TestArrowRelation:
    def test_orthogonal_circles(self):
        P = PointSet(4, tuple(dodecagon_vertex(s, 4, 0) for s in range(0, 12, 3)))
        Q = PointSet(4, tuple(dodecagon_vertex(s, 4, 1) for s in range(0, 12, 4)))
        assert arrow_relation(P, Q)
        assert arrow_relation(Q, P)

    def test_center_is_equidistant(self):
        P = PointSet(2, (pt(0, 0),))
        Q = PointSet(2, tuple(dodecagon_vertex(s) for s in range(12)))
        assert arrow_relation(P, Q)

    def test_negative(self):
        P = PointSet(4, (pt(2, 0, 0, 0),))
        Q = PointSet(4, (pt(0, 0, 1, 0), pt(1, 0, 0, 0)))
        assert not arrow_relation(P, Q)


class TestAffineSpanDim:
    def test_plane(self):
        P = PointSet(2, (pt(0, 0), pt(1, 0), pt(0, 1)))
        assert affine_span_dim(P) == 2

    def test_single_point(self):
        assert affine_span_dim(PointSet(3, (pt(1, 2, 3),))) == 0

    def test_dodecagon_in_r6(self):
        P = PointSet(6, tuple(dodecagon_vertex(s, 6, 0) for s in range(12)))
        assert affine_span_dim(P) == 2

    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_translation_invariant(self, dx, dy):
        pts = [pt(0, 0), pt(1, 2), pt(3, 1), pt(2, 2)]
        shifted = [
            (p[0] + Quad3.of(dx), p[1] + Quad3.of(dy))
            for p in pts
        ]
        assert affine_span_dim(PointSet(2, tuple(pts))) == affine_span_dim(
            PointSet(2, tuple(shifted))
        )

    def test_permutation_invariant(self):
        pts = (pt(0, 0, 0), pt(1, 0, 0), pt(1, 1, 0), pt(0, 0, 1))
        base = affine_span_dim(PointSet(3, pts))
        assert affine_span_dim(PointSet(3, pts[::-1])) == base


class TestSpansOrthogonal:
    def test_disjoint_coordinate_planes(self):
        P = PointSet(4, tuple(dodecagon_vertex(s, 4, 0) for s in (0, 3, 6)))
        Q = PointSet(4, tuple(dodecagon_vertex(s, 4, 1) for s in (0, 4, 8)))
        assert spans_orthogonal(P, Q)

    def test_parallel_segments(self):
        P = PointSet(2, (pt(0, 0), pt(1, 0)))
        Q = PointSet(2, (pt(0, 1), pt(1, 1)))
        assert not spans_orthogonal(P, Q)


#: Points of Q(rt3)^3 with coordinates a + b*rt3 for small integers a, b.
small_points = st.tuples(
    *[st.builds(Quad3.of, st.integers(-2, 2), st.integers(-2, 2))] * 3
)


class TestCircumcenter:
    def test_equilateral_on_unit_circle(self):
        P = PointSet(2, tuple(dodecagon_vertex(s) for s in (0, 4, 8)))
        assert circumcenter(P) == pt(0, 0)

    def test_right_triangle(self):
        c = circumcenter(PointSet(2, (pt(0, 0), pt(2, 0), pt(0, 2))))
        assert c == pt(1, 1)
        assert sq_dist(c, pt(0, 0)) == Quad3.of(2)

    def test_collinear_is_rejected(self):
        with pytest.raises(ValueError, match="not cospherical"):
            circumcenter(PointSet(2, (pt(0, 0), pt(1, 0), pt(2, 0))))

    def test_single_point(self):
        assert circumcenter(PointSet(2, (pt(3, 4),))) == pt(3, 4)

    def test_coplanar_not_concyclic_is_rejected(self):
        with pytest.raises(ValueError, match="not cospherical"):
            circumcenter(PointSet(2, (pt(0, 0), pt(1, 0), pt(0, 1), pt(2, 2))))

    @given(st.lists(small_points, min_size=2, max_size=5, unique=True))
    def test_equidistant_inside_the_span(self, points):
        P = PointSet(3, tuple(points))
        dim = affine_span_dim(P)
        try:
            c = circumcenter(P)
        except ValueError as exc:
            assert str(exc) == "not cospherical"
            # affinely independent points always have a circumcenter
            assert dim < len(P) - 1
            return
        assert len({sq_dist(c, p) for p in P.points}) == 1
        # c is at the same nonzero distance from each point, so it is new
        assert affine_span_dim(PointSet(3, (*P.points, c))) == dim


class TestLemmaSuite:
    """Mutually equidistant circle pairs span orthogonally and share a center."""

    @pytest.mark.parametrize("partition", [(12, 12, 12), (4, 4, 4), (3, 5, 7)])
    def test_lenz_circle_pairs(self, partition):
        config = build_even_config(sum(partition), 3, partition)
        pts = embed_config(config).points
        groups = []
        start = 0
        for comp in config.components:
            groups.append(
                PointSet(config.ambient_dim, pts[start : start + comp.size])
            )
            start += comp.size
        origin = pt(*[0] * config.ambient_dim)
        for i in range(3):
            for j in range(i + 1, 3):
                P, Q = groups[i], groups[j]
                assert arrow_relation(P, Q) and arrow_relation(Q, P)
                assert spans_orthogonal(P, Q)
        for g in groups:
            if len(g) >= 3:
                assert circumcenter(g) == origin

    def test_rotated_copies_still_satisfy_lemma(self):
        # rotate one circle by a 30-degree multiple: relations survive
        for offset in range(12):
            P = PointSet(
                4, tuple(dodecagon_vertex(s, 4, 0) for s in (0, 4, 8))
            )
            Q = PointSet(
                4,
                tuple(dodecagon_vertex(s + offset, 4, 1) for s in (0, 3, 6, 9)),
            )
            assert arrow_relation(P, Q) and arrow_relation(Q, P)
            assert spans_orthogonal(P, Q)
            assert circumcenter(P) == circumcenter(Q)

    def test_transversal_regular_families_span_orthogonally(self):
        config = build_even_config(12, 3, (4, 4, 4))
        pts = embed_config(config).points
        groups = [
            PointSet(6, pts[0:4]),
            PointSet(6, pts[4:8]),
            PointSet(6, pts[8:12]),
        ]
        from itertools import product

        assert all(
            is_regular_simplex(list(tri)) for tri in product(*[g.points for g in groups])
        )
        for i in range(3):
            assert affine_span_dim(groups[i]) >= 2
            for j in range(i + 1, 3):
                assert spans_orthogonal(groups[i], groups[j])

