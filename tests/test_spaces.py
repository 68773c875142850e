import numpy as np
import pytest

from wnfield.errors import DimensionMismatchError
from wnfield.spaces import DiscreteMeasureSpace, interval_grid


def test_interval_grid_single_midpoint():
    sp = interval_grid(1)
    assert sp.points.tolist() == [0.5]
    assert sp.weights.tolist() == [1.0]


def test_interval_grid_four_cells():
    sp = interval_grid(4)
    assert np.allclose(sp.points, [0.125, 0.375, 0.625, 0.875], atol=0)
    assert np.all(sp.weights == 0.25)


def test_interval_grid_unit_mass():
    assert interval_grid(2).total_mass == pytest.approx(1.0, abs=1e-15)


def test_interval_grid_rejects_zero():
    with pytest.raises(ValueError):
        interval_grid(0)


def test_inner_constant_on_unit_mass():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[0.5, 0.5])
    assert sp.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_inner_disjoint_supports():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[0.3, 1.7])
    assert sp.inner([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_inner_weighted_arithmetic():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[0.25, 0.75])
    assert sp.inner([2.0, 3.0], [1.0, 1.0]) == pytest.approx(2.75, abs=1e-15)


def test_norm_examples():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, 1.0])
    assert sp.norm([0.0, 0.0]) == 0.0
    assert sp.norm([3.0, 4.0]) == pytest.approx(5.0, abs=1e-14)
    unit = interval_grid(8)
    assert unit.norm(np.ones(8)) == pytest.approx(1.0, abs=1e-14)


def test_norm_of_values_whose_squares_overflow():
    # runs under warnings-as-errors: the squares overflow without a warning
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, 1.0])
    assert sp.norm([3e200, 4e200]) == pytest.approx(5e200, rel=1e-15)
    assert sp.norm([1e308, 1e308]) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
    assert sp.norm([np.inf, 1.0]) == np.inf
    assert np.isnan(sp.norm([np.nan, 1e200]))


@pytest.mark.parametrize("scale", [1e-170, 1e-300])
def test_norm_of_values_whose_squares_underflow(scale):
    # the squares of these values are below the smallest double
    sp = DiscreteMeasureSpace(points=[0.0, 1.0, 2.0], weights=[0.2, 0.5, 0.3])
    f = np.array([3.0, -4.0, 1.5])
    assert sp.norm(f * scale) == pytest.approx(sp.norm(f) * scale, rel=1e-15, abs=0.0)


def test_norm_is_exact_under_powers_of_two():
    # the norm is formed at the power-of-two scale of its input
    rng = np.random.default_rng(5)
    sp = DiscreteMeasureSpace(points=np.arange(16.0), weights=rng.uniform(0.1, 1.0, 16))
    f = rng.standard_normal(16)
    for e in (-1000, -600, -1, 1, 600, 1000):
        assert sp.norm(np.ldexp(f, e)) == np.ldexp(sp.norm(f), e)


def test_inner_length_mismatch():
    sp = interval_grid(4)
    with pytest.raises(DimensionMismatchError):
        sp.inner([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DimensionMismatchError):
        sp.norm([1.0, 2.0])


def test_inner_bilinear_and_symmetric():
    rng = np.random.default_rng(3)
    sp = DiscreteMeasureSpace(points=rng.random(16), weights=rng.random(16) + 0.1)
    for _ in range(25):
        f, g, h = rng.standard_normal((3, 16))
        a, b = rng.standard_normal(2)
        lhs = sp.inner(a * f + b * g, h)
        rhs = a * sp.inner(f, h) + b * sp.inner(g, h)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-14 * scale
        assert abs(sp.inner(f, g) - sp.inner(g, f)) <= 1e-14 * max(abs(sp.inner(f, g)), 1.0)


def test_cauchy_schwarz():
    rng = np.random.default_rng(11)
    sp = interval_grid(32)
    for _ in range(50):
        f, g = rng.standard_normal((2, 32))
        assert abs(sp.inner(f, g)) <= sp.norm(f) * sp.norm(g) + 1e-12


def test_definiteness_with_positive_weights():
    sp = interval_grid(16)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(16)
    assert sp.inner(f, f) > 0.0
    assert sp.norm(np.zeros(16)) == 0.0


def test_construction_validation():
    with pytest.raises(ValueError):
        DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, 0.0])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, -2.0])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace(points=[0.5, 0.5], weights=[1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        DiscreteMeasureSpace(points=[0.0, 1.0, 2.0], weights=[1.0, 1.0])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace(points=[0.0, np.inf], weights=[1.0, 1.0])


def test_space_is_immutable():
    sp = interval_grid(4)
    with pytest.raises(ValueError):
        sp.points[0] = 3.0
    with pytest.raises(ValueError):
        sp.weights[0] = 3.0


def test_multidimensional_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sp = DiscreteMeasureSpace(points=pts, weights=[1.0, 2.0, 3.0])
    assert sp.size == 3
    assert sp.inner([1, 0, 1], [1, 1, 1]) == pytest.approx(4.0)


#: calls that must fail, the exception each raises and its message
SPACE_BRANCHES = [
    pytest.param(lambda: DiscreteMeasureSpace(points=[], weights=[]), ValueError,
                 "space must contain at least one point", id="no-points"),
    pytest.param(lambda: DiscreteMeasureSpace(points=np.empty((0, 2)), weights=[]), ValueError,
                 "space must contain at least one point", id="no-planar-points"),
]


@pytest.mark.parametrize("call,error,message", SPACE_BRANCHES)
def test_spaces_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
