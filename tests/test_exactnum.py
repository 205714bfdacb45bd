import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from regsimplex.exactnum import Quad3, cos30_table, sin30_table


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
quads = st.builds(Quad3, rationals, rationals)


def approx(x: Quad3) -> float:
    """A float reading of x, for cross-checks only."""
    return float(x.a) + float(x.b) * 3 ** 0.5


class TestRational:
    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_canonical_form(self):
        x = Fraction(2, 4)
        assert x.numerator == 1 and x.denominator == 2

    def test_inverse_pair(self):
        assert Fraction(7, 3) * Fraction(3, 7) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    def test_string_round_trip(self):
        for s in ["5/6", "-3", "0", "22/7"]:
            text = f"{s}+{s}*rt3"
            assert str(Quad3.from_str(text)) == text


class TestQuad3Compare:
    def test_two_minus_rt3_vs_quarter(self):
        # 2 - rt3 > 1/4 iff 7/4 > rt3 iff 49/16 > 3
        x = Quad3.of(2, -1)
        y = Quad3.of(Fraction(1, 4))
        assert x > y
        assert approx(x) > approx(y)  # high-precision float cross-check

    def test_reflexive(self):
        x = Quad3.of(Fraction(3, 7), Fraction(-2, 5))
        assert not x < x and not x > x

    def test_two_vs_rt3(self):
        assert Quad3.of(2, 0) > Quad3.of(0, 1)

    @given(quads, quads)
    def test_antisymmetric(self, x, y):
        assert (x < y) + (y < x) + (x == y) == 1

    @given(quads, quads, quads)
    def test_transitive(self, x, y, z):
        if x < y and y < z:
            assert x < z

    @given(quads, quads, quads)
    def test_consistent_with_addition(self, x, y, z):
        if x < y:
            assert x + z < y + z

    @given(quads)
    def test_sign_matches_float(self, x):
        f = approx(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)


class TestQuad3Field:
    @given(quads, quads, quads)
    def test_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)

    @given(quads, quads, quads)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(quads)
    def test_conjugate_norm(self, x):
        conj = Quad3(x.a, -x.b)
        assert x * conj == Quad3.of(x.a * x.a - 3 * x.b * x.b)

    @given(quads)
    def test_multiplicative_inverse(self, x):
        if not x.is_zero():
            assert x * x.inverse() == Quad3.of(1)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            Quad3.of(0).inverse()


class TestCos30Table:
    def test_endpoints(self):
        assert cos30_table(0) == Quad3.of(1)
        assert cos30_table(3) == Quad3.of(0)
        assert cos30_table(6) == Quad3.of(-1)

    def test_thirty_degrees(self):
        c = cos30_table(1)
        assert c == Quad3.of(0, Fraction(1, 2))
        assert c * c == Quad3.of(Fraction(3, 4))
        # double angle: cos 60 = 2 cos^2 30 - 1
        assert c * c + c * c - Quad3.of(1) == cos30_table(2)

    @pytest.mark.parametrize("s", range(12))
    def test_pythagorean_identity(self, s):
        c = cos30_table(s)
        s_ = cos30_table((s + 3) % 12)
        assert c * c + s_ * s_ == Quad3.of(1)

    @pytest.mark.parametrize("s", range(12))
    def test_sin_is_shifted_cos(self, s):
        import math

        assert abs(approx(sin30_table(s)) - math.sin(s * math.pi / 6)) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cos30_table(12)


class TestSerialization:
    @given(quads)
    def test_round_trip(self, x):
        assert Quad3.from_str(str(x)) == x

    def test_format(self):
        assert str(Quad3.of(2, -1)) == "2+-1*rt3"
        assert str(Quad3.of(Fraction(1, 2), Fraction(1, 3))) == "1/2+1/3*rt3"


class TestOperatorPatching:
    # A tracer counts Quad3 arithmetic by replacing these operators on the
    # class, so each must be defined on Quad3 itself.
    OPS = ("__add__", "__sub__", "__mul__", "__eq__", "__lt__")

    def test_operators_defined_on_class(self):
        assert all(op in Quad3.__dict__ for op in self.OPS)

    def test_patched_operators_are_used(self, monkeypatch):
        calls = set()
        for op in self.OPS:
            original = Quad3.__dict__[op]

            def counted(x, y, op=op, original=original):
                calls.add(op)
                return original(x, y)

            monkeypatch.setattr(Quad3, op, counted)
        x, y = Quad3.of(1, 2), Quad3.of(3)
        assert x * y - x + y == Quad3.of(5, 4)
        assert y < x
        assert calls == set(self.OPS)

    def test_value_semantics(self):
        x = Quad3.of(Fraction(1, 2), 3)
        assert x == Quad3(Fraction(1, 2), Fraction(3)) and x != Quad3.of(3)
        assert len({x, Quad3.of(Fraction(2, 4), 3), Quad3.of(3)}) == 2
        assert eval(repr(x)) == x


class TestNoFloat:
    """No float reaches any predicate: the package source has no float
    literal, float() call or __float__ method, and true division only in
    the modules where / divides Fractions and Quad3s exactly."""

    SOURCES = sorted(
        (Path(__file__).resolve().parent.parent / "src" / "regsimplex").glob("*.py")
    )
    EXACT_DIVISION = {"exactnum.py", "geometry.py"}

    def test_sources_found(self):
        names = {p.name for p in self.SOURCES}
        assert {"exactnum.py", "geometry.py", "lenz.py"} <= names

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_no_float(self, path):
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and type(node.value) is float:
                found.append((node.lineno, "float literal"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                found.append((node.lineno, "float() call"))
            elif isinstance(node, ast.FunctionDef) and node.name == "__float__":
                found.append((node.lineno, "__float__ method"))
            elif (
                isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)
                and path.name not in self.EXACT_DIVISION
            ):
                found.append((node.lineno, "true division"))
        assert found == []
