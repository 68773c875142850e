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
