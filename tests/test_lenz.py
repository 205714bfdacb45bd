from fractions import Fraction

import pytest
from hypothesis import given

from regsimplex.census import (
    brute_force_structured,
    count_good_pairs,
    count_structured,
    count_inscribed_triangles,
    tick_chord_class,
)
from regsimplex.lenz import (
    Component,
    build_even_config,
    build_odd_config,
    config_from_json,
    config_to_json,
    embed_config,
    place_on_circle,
    theorem12_partition,
)
from test_census import tick_configs


class TestTheorem12Partition:
    def test_case_even_small_remainder(self):
        assert theorem12_partition(20, 3) == (6, 6, 8)

    def test_case_odd_large_remainder(self):
        assert theorem12_partition(23, 3) == (7, 8, 8)

    def test_exact_divisibility(self):
        assert theorem12_partition(36, 3) == (12, 12, 12)

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("n", range(3, 80, 7))
    def test_sums_to_n(self, n, r):
        if n >= r:
            part = theorem12_partition(n, r)
            assert len(part) == r and sum(part) == n
            assert all(x >= 0 for x in part)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            theorem12_partition(2, 3)
        with pytest.raises(ValueError):
            theorem12_partition(10, 2)


class TestPlaceOnCircle:
    def test_full_dodecagon(self):
        assert place_on_circle(12) == (12, tuple(range(12)))

    def test_inscribed_square(self):
        assert place_on_circle(4) == (12, (0, 3, 6, 9))

    def test_one_extra_point(self):
        N, ticks = place_on_circle(13)
        assert N == 24
        assert set(ticks) == set(range(0, 24, 2)) | {1}

    def test_zero(self):
        assert place_on_circle(0) == (12, ())

    @pytest.mark.parametrize("n_i", range(0, 49))
    def test_good_pair_count_formula(self, n_i):
        N, ticks = place_on_circle(n_i)
        expected = n_i - (1 if n_i % 4 else 0) if n_i else 0
        assert count_good_pairs(ticks, N) == expected

    @pytest.mark.parametrize("n_i", range(0, 49))
    def test_triangle_count_formula(self, n_i):
        N, ticks = place_on_circle(n_i)
        p = n_i % 12
        expected = (n_i - p) // 3 + (p - 8 if p > 8 else 0)
        assert count_inscribed_triangles(ticks, N) == expected

    @pytest.mark.parametrize("n_i", [13, 25, 30, 47])
    def test_cross_copy_chords_avoid_quarter_and_third(self, n_i):
        # points of different dodecagon copies never sit at 90 or 120 degrees
        N, ticks = place_on_circle(n_i)
        m = N // 12
        for a in ticks:
            for b in ticks:
                if a < b and a % m != b % m:
                    assert tick_chord_class(N, b - a) in ("other",)


class TestBuildEvenConfig:
    def test_three_dodecagons(self):
        config = build_even_config(36, 3, (12, 12, 12))
        assert config.ambient_dim == 6
        assert config.radius_sq == Fraction(1)
        assert [c.size for c in config.components] == [12, 12, 12]
        assert all(c.kind == "circle" for c in config.components)

    def test_single_cross_triangle(self):
        config = build_even_config(3, 3, (1, 1, 1))
        assert [c.size for c in config.components] == [1, 1, 1]

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            build_even_config(10, 3, (1, 2, 3))

    def test_empty_circle_allowed(self):
        config = build_even_config(5, 3, (0, 2, 3))
        assert config.components[0].size == 0


class TestBuildOddConfig:
    def test_minimal(self):
        config = build_odd_config(3, 3)
        assert config.ambient_dim == 7
        assert [c.size for c in config.components] == [1, 1, 1]
        assert config.components[-1].kind == "sphere2"
        assert all(c.kind == "circle" for c in config.components[:-1])

    def test_balanced(self):
        config = build_odd_config(36, 3)
        assert [c.size for c in config.components] == [12, 12, 12]

    def test_tie_break_larger_first(self):
        config = build_odd_config(37, 3)
        assert [c.size for c in config.components] == [13, 12, 12]


class TestEmbedding:
    def test_single_copy_embeds(self):
        config = build_even_config(20, 3, (6, 6, 8))
        pts = embed_config(config)
        assert pts.dim == 6 and len(pts) == 20

    def test_multi_copy_rejected(self):
        config = build_even_config(39, 3, (13, 13, 13))
        with pytest.raises(ValueError, match="30 degrees"):
            embed_config(config)

    def test_odd_config_embeds(self):
        pts = embed_config(build_odd_config(9, 3))
        assert pts.dim == 7 and len(pts) == 9


class TestComponentValue:
    def test_equality_and_hash(self):
        a = Component("circle", 12, (0, 3))
        assert a == Component("circle", 12, (0, 3))
        assert a != Component("circle", 24, (0, 3))
        assert a != Component("sphere2", 12, (0, 3))
        assert a != Component("circle", 12, (0, 4))
        assert len({a, Component("circle", 12, (0, 3))}) == 1

    def test_validates(self):
        with pytest.raises(ValueError, match="ticks must be distinct"):
            Component("circle", 12, (0, 12))


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            build_even_config(20, 3, (6, 6, 8)),
            build_even_config(39, 3, (13, 13, 13)),
            build_odd_config(10, 3),
        ],
    )
    def test_round_trip(self, config):
        assert config_from_json(config_to_json(config)) == config

    @given(tick_configs())
    def test_round_trip_random(self, config):
        # ticks may lie outside [0, N); they are written reduced modulo N
        obj = config_to_json(config)
        parsed = config_from_json(obj)
        assert config_to_json(parsed) == obj
        for k in (3, 4):
            assert count_structured(parsed, k) == count_structured(config, k)
            assert brute_force_structured(parsed, k) == brute_force_structured(
                config, k
            )


class TestConfigValidation:
    @pytest.fixture
    def obj(self):
        # circles of 4 and 3 points, then a 2-sphere of 3: widths 2 + 2 + 3
        return config_to_json(build_odd_config(10, 3))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_tick_outside_range(self, obj, shift):
        comp = obj["components"][1]
        comp["ticks"][0] += shift * comp["modulus"]
        with pytest.raises(ValueError, match=r"component 1 has a tick outside \[0, 12\)"):
            config_from_json(obj)

    def test_components_exceed_ambient_dim(self, obj):
        obj["ambient_dim"] = 6
        with pytest.raises(ValueError, match="need 7 coordinates, ambient_dim is 6"):
            config_from_json(obj)

    def test_sphere_not_last(self, obj):
        obj["components"].reverse()
        with pytest.raises(ValueError, match="only the last component"):
            config_from_json(obj)

    @pytest.mark.parametrize("radius_sq", ["0", "-1/2"])
    def test_nonpositive_radius(self, obj, radius_sq):
        obj["radius_sq"] = radius_sq
        with pytest.raises(ValueError, match="radius_sq must be positive"):
            config_from_json(obj)

    @pytest.mark.parametrize("modulus", [0, -12])
    def test_nonpositive_modulus(self, obj, modulus):
        obj["components"][0]["modulus"] = modulus
        with pytest.raises(ValueError, match="positive multiple of 12"):
            config_from_json(obj)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("radius_sq", "abc",
             "config JSON: radius_sq: Invalid literal for Fraction: 'abc'"),
            ("kind", 5, "config JSON: component 1: unknown component kind 5"),
            ("ticks", [0, 12],
             "config JSON: component 1: ticks must be distinct modulo the modulus"),
            ("modulus", 18,
             "config JSON: component 1: modulus must be a positive multiple of 12"),
        ],
    )
    def test_error_names_field(self, obj, key, value, message):
        (obj if key in obj else obj["components"][1])[key] = value
        with pytest.raises(ValueError) as exc:
            config_from_json(obj)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["ambient_dim", "radius_sq", "components"])
    def test_missing_key(self, obj, key):
        del obj[key]
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            config_from_json(obj)

    def test_missing_component_key(self, obj):
        del obj["components"][2]["ticks"]
        with pytest.raises(ValueError, match="missing key 'ticks'"):
            config_from_json(obj)

    def test_larger_ambient_dim_accepted(self, obj):
        obj["ambient_dim"] = 9
        assert config_from_json(obj).ambient_dim == 9
