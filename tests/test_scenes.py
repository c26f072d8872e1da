"""Tests for the scene generators and the benchmark suite."""

import numpy as np
import pytest

from repro import BlendMode, GPUConfig, SceneError
from repro.math3d import Vec2, Vec3, Vec4
from repro.scenes import (
    BENCHMARKS,
    BoxSpec,
    CircularMotion,
    HUDSpec,
    JitterMotion,
    Layer2D,
    LinearOscillation,
    Scene2D,
    Scene3D,
    SpriteSpec,
    StaticMotion,
    benchmark_info,
    benchmark_names,
    benchmark_stream,
)


class TestMotions:
    def test_static(self):
        assert StaticMotion().offset(5) == Vec3(0, 0, 0)

    def test_linear_oscillation_periodic(self):
        motion = LinearOscillation(Vec3(10, 0, 0), period_frames=8)
        zero = motion.offset(0)
        full = motion.offset(8)
        assert zero.x == pytest.approx(full.x, abs=1e-9)
        assert motion.offset(2).x == pytest.approx(10.0)

    def test_circular_radius(self):
        motion = CircularMotion(radius=5.0, period_frames=16)
        for frame in range(16):
            offset = motion.offset(frame)
            assert (offset.x ** 2 + offset.y ** 2) ** 0.5 == pytest.approx(5.0)

    def test_jitter_deterministic(self):
        motion = JitterMotion(amplitude=3.0, seed=7)
        assert motion.offset(4) == motion.offset(4)

    def test_jitter_varies_with_frame(self):
        motion = JitterMotion(amplitude=3.0, seed=7)
        offsets = {motion.offset(i).as_tuple() for i in range(8)}
        assert len(offsets) > 4

    def test_jitter_bounded(self):
        motion = JitterMotion(amplitude=3.0, seed=7)
        for frame in range(32):
            offset = motion.offset(frame)
            assert abs(offset.x) <= 3.0
            assert abs(offset.y) <= 3.0


class TestScene2D:
    def _layer(self):
        return Layer2D("test", [SpriteSpec(Vec2(10, 10), Vec2(8, 8))])

    def test_needs_layers(self):
        with pytest.raises(SceneError):
            Scene2D(64, 48, [])

    def test_frame_structure(self):
        scene = Scene2D(64, 48, [self._layer()])
        frame = scene.build_frame(0)
        assert frame.index == 0
        assert len(frame.commands) == 1
        assert frame.commands[0].label == "test"

    def test_hud_appended_last(self):
        hud = HUDSpec(panels=((0, 0, 64, 8),))
        scene = Scene2D(64, 48, [self._layer()], hud=hud)
        frame = scene.build_frame(0)
        assert frame.commands[-1].label == "hud"

    def test_sprites_are_nwoz(self):
        scene = Scene2D(64, 48, [self._layer()])
        state = scene.build_frame(0).commands[0].state
        assert not state.writes_z
        assert not state.depth_test

    def test_motion_moves_sprites(self):
        layer = Layer2D("moving", [
            SpriteSpec(Vec2(20, 20), Vec2(8, 8),
                       motion=LinearOscillation(Vec3(10, 0, 0), 8))
        ])
        scene = Scene2D(64, 48, [layer])
        p0 = scene.build_frame(0).commands[0].triangles[0].v0.position
        p2 = scene.build_frame(2).commands[0].triangles[0].v0.position
        assert p0.x != p2.x

    def test_stream_deterministic(self):
        scene = Scene2D(64, 48, [self._layer()])
        a = scene.stream(3)
        b = scene.stream(3)
        for frame_a, frame_b in zip(a, b):
            tris_a = [t.pack() for c in frame_a.commands for t in c.triangles]
            tris_b = [t.pack() for c in frame_b.commands for t in c.triangles]
            assert tris_a == tris_b


class TestScene3D:
    def _scene(self, **kwargs):
        return Scene3D(
            64, 48,
            boxes=[BoxSpec(Vec3(0, 1, 0), Vec3(2, 2, 2))],
            **kwargs,
        )

    def test_bad_draw_order_rejected(self):
        with pytest.raises(SceneError):
            self._scene(draw_order="random")

    def test_command_structure(self):
        scene = self._scene(hud=HUDSpec(panels=((0, 0, 64, 8),)))
        frame = scene.build_frame(0)
        labels = [c.label for c in frame.commands]
        assert labels[0] == "background"
        assert "ground" in labels
        assert labels[-1] == "hud"

    def test_background_and_hud_are_nwoz(self):
        scene = self._scene(hud=HUDSpec(panels=((0, 0, 64, 8),)))
        frame = scene.build_frame(0)
        assert not frame.commands[0].state.writes_z
        assert not frame.commands[-1].state.writes_z

    def test_world_geometry_is_woz(self):
        frame = self._scene().build_frame(0)
        box_command = next(c for c in frame.commands if c.label == "box")
        assert box_command.state.writes_z

    def test_static_camera(self):
        scene = self._scene(camera_orbit_period=0.0)
        assert scene.eye(0) == scene.eye(10)

    def test_orbiting_camera_moves(self):
        scene = self._scene(camera_orbit_period=16.0)
        assert scene.eye(0) != scene.eye(4)

    def test_orbit_preserves_distance(self):
        scene = self._scene(camera_orbit_period=16.0)
        target = scene.camera_target

        def dist(frame):
            eye = scene.eye(frame)
            return ((eye.x - target.x) ** 2 + (eye.z - target.z) ** 2) ** 0.5

        assert dist(0) == pytest.approx(dist(7))

    def test_static_meshes_built_once_with_the_same_bits(self):
        from repro.scenes.motion import LinearOscillation
        boxes = [
            BoxSpec(Vec3(-0.0, 1.0, -0.0), Vec3(2, 2, 2), name="static"),
            BoxSpec(Vec3(3, 1, 0), Vec3(1, 1, 1), name="moving",
                    motion=LinearOscillation(Vec3(1.0, 0.0, 0.0))),
        ]
        scene = Scene3D(64, 48, boxes=boxes)
        frames = [scene.build_frame(index) for index in range(3)]

        def arrays(frame, label):
            command = next(command for command in frame.commands
                           if command.label == label)
            return command.positions, command.attributes

        # The backdrop, the ground and the static box reuse their
        # first-frame arrays; the moving box is rebuilt every frame.
        for label in ("background", "ground", "static"):
            assert all(a is b for a, b in zip(arrays(frames[0], label),
                                              arrays(frames[2], label)))
        assert not np.shares_memory(arrays(frames[0], "moving")[0],
                                    arrays(frames[2], "moving")[0])

        def bits(frame):
            return [np.concatenate(arrays(frame, command.label),
                                   axis=2).tobytes()
                    for command in frame.commands]

        # Every bit as a scene that builds each mesh afresh, signed
        # zeros included.
        for index, frame in enumerate(frames):
            fresh = Scene3D(64, 48, boxes=boxes).build_frame(index)
            assert bits(frame) == bits(fresh)

    def test_translucents_after_world(self):
        from repro.scenes.scene3d import TranslucentSpec
        scene = Scene3D(
            64, 48,
            boxes=[BoxSpec(Vec3(0, 1, 0), Vec3(2, 2, 2))],
            translucents=[TranslucentSpec(Vec3(0, 2, 0), 2.0)],
        )
        frame = scene.build_frame(0)
        labels = [c.label for c in frame.commands]
        assert labels.index("effect") > labels.index("box")
        effect = next(c for c in frame.commands if c.label == "effect")
        assert effect.state.blend is BlendMode.ALPHA
        assert effect.state.depth_test and not effect.state.depth_write


class TestBenchmarkSuite:
    def test_twenty_benchmarks(self):
        assert len(BENCHMARKS) == 20
        assert len(benchmark_names("3D")) == 6
        assert len(benchmark_names("2D")) == 14

    def test_paper_aliases_present(self):
        expected = {
            "300", "ata", "csn", "mst", "ter", "tib",
            "abi", "arm", "ale", "ccs", "cde", "coc", "ctr", "dpe",
            "hay", "hop", "mto", "red", "wmw", "wog",
        }
        assert set(BENCHMARKS) == expected

    def test_unknown_benchmark(self):
        with pytest.raises(SceneError):
            benchmark_info("nope")

    def test_streams_build(self):
        config = GPUConfig.tiny(frames=2)
        for alias in ("cde", "tib"):
            stream = benchmark_stream(alias, config)
            assert len(stream) == 2
            frame = stream.frame(0)
            assert frame.triangle_count > 0

    def test_stream_deterministic_across_builds(self):
        config = GPUConfig.tiny(frames=2)
        a = benchmark_stream("hay", config).frame(1)
        b = benchmark_stream("hay", config).frame(1)
        packs_a = [t.pack() for c in a.commands for t in c.triangles]
        packs_b = [t.pack() for c in b.commands for t in c.triangles]
        assert packs_a == packs_b

    def test_frames_override(self):
        config = GPUConfig.tiny(frames=2)
        assert len(benchmark_stream("cde", config, frames=7)) == 7

    def test_3d_benchmarks_have_woz_and_nwoz(self):
        config = GPUConfig.tiny(frames=1)
        frame = benchmark_stream("tib", config).frame(0)
        woz = [c for c in frame.commands if c.state.writes_z]
        nwoz = [c for c in frame.commands if not c.state.writes_z]
        assert woz and nwoz

    def test_2d_benchmarks_are_pure_nwoz(self):
        config = GPUConfig.tiny(frames=1)
        for alias in benchmark_names("2D"):
            frame = benchmark_stream(alias, config).frame(0)
            assert all(not c.state.writes_z for c in frame.commands), alias

    def test_hidden_motion_requires_hud(self):
        from repro.scenes.benchmarks import _sprite_scene
        with pytest.raises(SceneError):
            _sprite_scene(GPUConfig.tiny(), seed=1, layers=1,
                          sprites_per_layer=1, animated_fraction=0.0,
                          hidden_motion_sprites=2)
