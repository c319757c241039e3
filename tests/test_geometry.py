import math

import pytest
from hypothesis import given, strategies as st

from pemkit import (
    Condition,
    GridSpec,
    OcclusionLevel,
    PolarCoord,
    condition_from_index,
    condition_of,
    conditions_of,
    polar_from_xy,
    wrap_angle,
    xy_from_polar,
)
from pemkit.geometry import condition_index


@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_wrap_angle_domain(theta):
    w = wrap_angle(theta)
    assert -math.pi < w <= math.pi


def test_wrap_angle_fixed_points():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)


def test_polar_cartesian_roundtrip():
    for x, y in [(0.0, 10.0), (-3.0, 4.0), (5.0, -2.0), (-1.0, -1.0)]:
        p = polar_from_xy(x, y)
        x2, y2 = xy_from_polar(p)
        assert x2 == pytest.approx(x, abs=1e-12)
        assert y2 == pytest.approx(y, abs=1e-12)


def test_bearing_convention():
    # Ego faces +y; straight ahead is bearing 0, left (-x) is +pi/2.
    assert polar_from_xy(0.0, 10.0).theta == pytest.approx(0.0)
    assert polar_from_xy(-10.0, 0.0).theta == pytest.approx(math.pi / 2)
    assert polar_from_xy(10.0, 0.0).theta == pytest.approx(-math.pi / 2)


def test_polar_coord_invariants():
    with pytest.raises(ValueError):
        PolarCoord(-1.0, 0.0)
    with pytest.raises(ValueError):
        PolarCoord(1.0, -math.pi)  # open at -pi
    PolarCoord(1.0, math.pi)  # closed at +pi


def test_grid_defaults():
    g = GridSpec()
    assert g.n_sectors == 12
    assert g.n_rings == 10
    assert g.n_conditions == 480


def test_grid_invariants():
    with pytest.raises(ValueError):
        GridSpec(sector_width_deg=25.0)  # does not divide 360
    with pytest.raises(ValueError):
        GridSpec(ring_depth_m=7.0, max_radius_m=100.0)
    with pytest.raises(ValueError):
        GridSpec(ring_depth_m=-1.0)


def test_condition_of_reference_points():
    g = GridSpec()
    c = condition_of(PolarCoord(15.0, 0.1), OcclusionLevel.VIS3, g)
    assert (c.occ, c.ring) == (3, 1)
    assert c.sector == 0  # sector containing 0.1 rad starts at the heading

    c0 = condition_of(PolarCoord(0.0, 0.0), OcclusionLevel.VIS0, g)
    assert (c0.occ, c0.ring, c0.sector) == (0, 0, 0)

    # Outer boundary is exclusive.
    assert condition_of(PolarCoord(100.0, 0.0), OcclusionLevel.VIS3, g) is None
    assert condition_of(PolarCoord(99.999, 0.0), OcclusionLevel.VIS3, g) is not None


def test_condition_index_is_occlusion_major():
    g = GridSpec()
    c = condition_of(PolarCoord(15.0, 0.1), OcclusionLevel.VIS3, g)
    assert c.index == 3 * 120 + 1 * 12 + 0


@given(st.integers(0, 3), st.data())
def test_condition_bijection(occ, data):
    g = GridSpec(sector_width_deg=45.0, ring_depth_m=20.0, max_radius_m=100.0)
    ring = data.draw(st.integers(0, g.n_rings - 1))
    sector = data.draw(st.integers(0, g.n_sectors - 1))
    index = condition_index(occ, ring, sector, g)
    c = condition_from_index(index, g)
    assert (c.occ, c.ring, c.sector) == (occ, ring, sector)
    # and back through a representative position
    r = (ring + 0.5) * g.ring_depth_m
    theta = wrap_angle((sector + 0.5) * g.sector_width_rad)
    c2 = condition_of(PolarCoord(r, theta), OcclusionLevel(occ), g)
    assert c2 == Condition(index, occ, ring, sector)


def test_occlusion_binning():
    assert OcclusionLevel.from_fraction(0.0) == OcclusionLevel.VIS0
    assert OcclusionLevel.from_fraction(0.39) == OcclusionLevel.VIS0
    assert OcclusionLevel.from_fraction(0.4) == OcclusionLevel.VIS1
    assert OcclusionLevel.from_fraction(0.6) == OcclusionLevel.VIS2
    assert OcclusionLevel.from_fraction(0.8) == OcclusionLevel.VIS3
    assert OcclusionLevel.from_fraction(1.0) == OcclusionLevel.VIS3


_LOOKUP_GRIDS = [
    GridSpec(),
    GridSpec(sector_width_deg=15.0, ring_depth_m=10.0, max_radius_m=100.0),
    GridSpec(sector_width_deg=45.0, ring_depth_m=20.0, max_radius_m=100.0),
    GridSpec(sector_width_deg=5.0, ring_depth_m=1.0, max_radius_m=100.0),
    GridSpec(sector_width_deg=360.0, ring_depth_m=7.0, max_radius_m=21.0),
]


def _edge_radii(g: GridSpec) -> list[float]:
    rings = [k * g.ring_depth_m for k in range(g.n_rings + 1)]
    return rings + [math.nextafter(g.max_radius_m, 0.0), g.max_radius_m, 2.0 * g.max_radius_m]


def _edge_bearings(g: GridSpec) -> list[float]:
    sectors = [wrap_angle(k * g.sector_width_rad) for k in range(g.n_sectors)]
    return sectors + [math.pi, math.nextafter(-math.pi, 0.0), 0.0, -0.0, math.nextafter(0.0, -1.0)]


def _scalar_indices(objs, g: GridSpec) -> list[int]:
    out = []
    for r, theta, occ in objs:
        c = condition_of(PolarCoord(r, theta), OcclusionLevel(occ), g)
        out.append(-1 if c is None else c.index)
    return out


def _vector_indices(objs, g: GridSpec) -> list[int]:
    return conditions_of([o[0] for o in objs], [o[1] for o in objs], [o[2] for o in objs], g).tolist()


@pytest.mark.parametrize("g", _LOOKUP_GRIDS)
def test_conditions_of_matches_scalar_on_bin_edges(g):
    objs = [(r, theta, occ) for r in _edge_radii(g) for theta in _edge_bearings(g) for occ in range(4)]
    assert _vector_indices(objs, g) == _scalar_indices(objs, g)


@given(st.data())
def test_conditions_of_matches_scalar(data):
    g = data.draw(st.sampled_from(_LOOKUP_GRIDS))
    r = st.one_of(st.sampled_from(_edge_radii(g)), st.floats(0.0, 1.5 * g.max_radius_m))
    theta = st.one_of(st.sampled_from(_edge_bearings(g)), st.floats(-math.pi, math.pi, exclude_min=True))
    objs = data.draw(st.lists(st.tuples(r, theta, st.integers(0, 3)), max_size=48))
    assert _vector_indices(objs, g) == _scalar_indices(objs, g)


def test_conditions_of_empty_frame():
    assert conditions_of([], [], [], GridSpec()).tolist() == []
