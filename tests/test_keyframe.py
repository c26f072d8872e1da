"""Tests for keyframed animation paths."""

import pytest

from repro import SceneError
from repro.math3d import Vec3
from repro.scenes import KeyframePath


def path_xyz(*points, **kwargs):
    return KeyframePath(
        tuple((float(t), Vec3(*p)) for t, p in points), **kwargs
    )


class TestValidation:
    def test_needs_two_waypoints(self):
        with pytest.raises(SceneError):
            KeyframePath(((0.0, Vec3(0, 0, 0)),))

    def test_times_strictly_increasing(self):
        with pytest.raises(SceneError):
            path_xyz((0, (0, 0, 0)), (0, (1, 0, 0)))
        with pytest.raises(SceneError):
            path_xyz((5, (0, 0, 0)), (2, (1, 0, 0)))

    def test_unknown_easing(self):
        with pytest.raises(SceneError):
            path_xyz((0, (0, 0, 0)), (1, (1, 0, 0)), easing="bouncy")


class TestSampling:
    def test_waypoints_hit_exactly(self):
        path = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)), (20, (10, 5, 0)))
        assert path.position(0) == Vec3(0, 0, 0)
        assert path.position(10) == Vec3(10, 0, 0)
        assert path.position(20) == Vec3(10, 5, 0)

    def test_linear_midpoint(self):
        path = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)))
        assert path.position(5) == Vec3(5, 0, 0)

    def test_clamping_outside_range(self):
        path = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)))
        assert path.position(-5) == Vec3(0, 0, 0)
        assert path.position(99) == Vec3(10, 0, 0)

    def test_smooth_easing_slower_at_ends(self):
        linear = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)))
        smooth = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)), easing="smooth")
        # Smoothstep lags linear early in the segment...
        assert smooth.position(2).x < linear.position(2).x
        # ...and leads it late.
        assert smooth.position(8).x > linear.position(8).x
        # Midpoint identical.
        assert smooth.position(5).x == pytest.approx(5.0)

    def test_loop_wraps(self):
        path = path_xyz((0, (0, 0, 0)), (10, (10, 0, 0)), loop=True)
        assert path.position(12).x == pytest.approx(path.position(2).x)

    def test_through_constructor(self):
        path = KeyframePath.through(
            [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)],
            frames_per_segment=8,
        )
        assert path.duration == 16
        assert path.position(8) == Vec3(1, 0, 0)


class TestMotionProtocol:
    def test_offset_relative_to_start(self):
        path = path_xyz((0, (5, 5, 0)), (10, (15, 5, 0)))
        assert path.offset(0) == Vec3(0, 0, 0)
        assert path.offset(10) == Vec3(10, 0, 0)

    def test_usable_as_sprite_motion(self):
        from repro.math3d import Vec2
        from repro.scenes import Layer2D, SpriteSpec
        path = path_xyz((0, (10, 10, 0)), (8, (30, 10, 0)))
        layer = Layer2D("kf", [
            SpriteSpec(Vec2(10, 10), Vec2(4, 4), motion=path)
        ])
        start = layer.build_mesh(0).positions[0, 0]
        end = layer.build_mesh(8).positions[0, 0]
        assert end[0] - start[0] == pytest.approx(20.0)
