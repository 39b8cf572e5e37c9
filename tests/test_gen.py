"""Synthetic instance generators."""

from fractions import Fraction

import pytest

from tverberg.gen import (
    MAX_BALL_DIM,
    MAX_POINTS,
    colored_classes,
    grid_points,
    line_points,
    uniform_ball,
)

F = Fraction


def test_line_points_values():
    cfg = line_points(5)
    assert cfg.dim == 1
    assert cfg.points == ((F(1),), (F(2),), (F(3),), (F(4),), (F(5),))
    with pytest.raises(ValueError):
        line_points(0)


def test_grid_points_covers_cube():
    cfg = grid_points(3, 2)
    assert cfg.dim == 2
    assert len(cfg.points) == 9
    assert set(cfg.points) == {
        (F(x), F(y)) for x in range(3) for y in range(3)
    }


def test_grid_points_size_cap():
    side = int(MAX_POINTS**0.5) + 2
    with pytest.raises(ValueError, match="cap"):
        grid_points(side, 2)
    # 2^100000 has 30,103 digits, past int-to-str's 4,300-digit limit; the
    # message writes the power instead, and the check never builds 2^100000.
    with pytest.raises(ValueError, match=r"grid would have 2\^100000 points, cap is 100000"):
        grid_points(2, 100_000)
    # A side of 1 is one point in any dimension up to the cap; past it the
    # check refuses before it builds a single coordinate.
    assert grid_points(1, 40).points == ((F(0),) * 40,)
    with pytest.raises(ValueError, match="grid dimension 100001 exceeds the cap of 100000"):
        grid_points(1, MAX_POINTS + 1)
    with pytest.raises(ValueError, match="grid dimension 1000000000 exceeds the cap"):
        grid_points(1, 10**9)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: line_points(n),
        lambda n: uniform_ball(n, 2, 5, 0),
        lambda n: colored_classes(n // 2, 2, dim=2, radius=5, seed=0),
    ],
    ids=["line", "uniform-ball", "colored-classes"],
)
def test_every_generator_has_the_point_cap(make):
    # Refused before any point is drawn: a regression would build 100,002
    # points here, so the refusal is also fast.
    with pytest.raises(ValueError, match=f"{MAX_POINTS + 2} points exceed the cap of 100000"):
        make(MAX_POINTS + 2)


def test_uniform_ball_inside_radius_and_seeded():
    cfg = uniform_ball(200, 3, radius=7, seed=5)
    assert cfg.dim == 3
    assert len(cfg.points) == 200
    for pt in cfg.points:
        assert sum(x * x for x in pt) <= 49
        assert all(x.denominator == 1 for x in pt)
    assert cfg == uniform_ball(200, 3, radius=7, seed=5)
    assert cfg != uniform_ball(200, 3, radius=7, seed=6)


def test_uniform_ball_parameter_validation():
    with pytest.raises(ValueError):
        uniform_ball(0, 2, 5, 0)
    with pytest.raises(ValueError):
        uniform_ball(5, 0, 5, 0)
    with pytest.raises(ValueError):
        uniform_ball(5, 2, 0, 0)


def test_ball_dimension_cap():
    # Cube rejection accepts ~2e-14 of the draws in dimension 30; the cap
    # refuses such requests instead of sampling for hours.
    with pytest.raises(ValueError, match="exceeds the cap of 8"):
        uniform_ball(2, MAX_BALL_DIM + 1, 5, 0)
    with pytest.raises(ValueError, match="exceeds the cap of 8"):
        colored_classes(1, 2, dim=24, radius=5, seed=0)
    # Dimension 8 is still drawn, as before the cap.
    assert uniform_ball(2, MAX_BALL_DIM, 5, 3).points == (
        tuple(map(F, (-1, 0, 2, 0, 0, -2, 3, -2))),
        tuple(map(F, (-2, -1, -2, 2, 0, 3, 1, 0))),
    )


def test_colored_classes_layout():
    cfg = colored_classes(4, 3, dim=2, radius=9, seed=2)
    assert len(cfg.points) == 12
    assert cfg.colors == (1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4)
    grouped = cfg.color_classes()
    assert sorted(grouped) == [1, 2, 3, 4]
    assert all(len(members) == 3 for members in grouped.values())
