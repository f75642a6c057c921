"""Tests for map points, the global map and the key-frame policy."""

import numpy as np
import pytest

from repro.config import TrackerConfig
from repro.errors import MapError
from repro.geometry import Pose, so3_exp
from repro.slam import GlobalMap, KeyframePolicy, MapPoint
from repro.slam.map import _COLUMNS as _MAP_COLUMNS


def _descriptor(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, 32, dtype=np.uint8)


def _add_point(global_map, position, descriptor, created_frame) -> MapPoint:
    """Add one point through ``add_points``; return its snapshot."""
    (point_id,) = global_map.add_points([position], [descriptor], created_frame)
    return global_map.get(int(point_id))


class TestMapPoint:
    def test_construction_defaults(self):
        point = MapPoint(
            point_id=3, position=[1, 2, 3], descriptor=_descriptor(), created_frame=5
        )
        assert point.last_matched_frame == 5
        assert point.times_matched == 0
        assert point.position.shape == (3,)

    def test_snapshot_is_frozen(self):
        point = MapPoint(0, [0, 0, 1], _descriptor(), created_frame=0)
        with pytest.raises(AttributeError):
            point.times_matched = 1

    def test_invalid_descriptor_rejected(self):
        with pytest.raises(MapError):
            MapPoint(0, [0, 0, 1], np.zeros((0,), dtype=np.uint8), created_frame=0)


class TestGlobalMap:
    def test_add_and_get(self):
        global_map = GlobalMap()
        point = _add_point(global_map, [1, 2, 3], _descriptor(), created_frame=0)
        assert len(global_map) == 1
        assert point.point_id in global_map
        assert global_map.get(point.point_id).position[2] == 3

    def test_ids_are_unique_and_increasing(self):
        global_map = GlobalMap()
        ids = [_add_point(global_map, [0, 0, i], _descriptor(i), 0).point_id for i in range(5)]
        assert ids == sorted(set(ids))

    def test_dense_matrices_match_points(self):
        global_map = GlobalMap()
        for i in range(4):
            _add_point(global_map, [i, 0, 1], _descriptor(i), 0)
        descriptors = global_map.descriptor_matrix()
        positions = global_map.position_matrix()
        assert descriptors.shape == (4, 32)
        assert positions.shape == (4, 3)
        assert positions[2, 0] == 2

    def test_matrices_update_after_insertion(self):
        global_map = GlobalMap()
        _add_point(global_map, [0, 0, 1], _descriptor(0), 0)
        assert global_map.descriptor_matrix().shape[0] == 1
        _add_point(global_map, [0, 0, 2], _descriptor(1), 0)
        assert global_map.descriptor_matrix().shape[0] == 2

    def test_empty_map_matrices(self):
        global_map = GlobalMap()
        assert global_map.descriptor_matrix().shape == (0, 32)
        assert global_map.position_matrix().shape == (0, 3)

    def test_bulk_add_stops_at_capacity(self):
        global_map = GlobalMap(max_points=3)
        created = global_map.add_points(
            [[0, 0, i] for i in range(5)], [_descriptor(i) for i in range(5)], 0
        )
        assert len(created) == 3
        assert len(global_map) == 3

    def test_cull_removes_stale_points(self):
        global_map = GlobalMap()
        stale = _add_point(global_map, [0, 0, 1], _descriptor(0), created_frame=0)
        fresh = _add_point(global_map, [0, 0, 2], _descriptor(1), created_frame=0)
        global_map.record_matches(np.array([1]), 20)
        removed = global_map.cull(current_frame=40, ttl_frames=30)
        assert removed == 1
        assert stale.point_id not in global_map
        assert fresh.point_id in global_map

    def test_cull_requires_positive_ttl(self):
        with pytest.raises(MapError):
            GlobalMap().cull(10, 0)

    def test_get_missing_point(self):
        with pytest.raises(MapError):
            GlobalMap().get(99)

    def test_point_ids_align_with_matrix_rows(self):
        global_map = GlobalMap()
        for i in range(3):
            _add_point(global_map, [0, 0, i], _descriptor(i), 0)
        ids = global_map.point_ids()
        positions = global_map.position_matrix()
        for row, point_id in enumerate(ids):
            assert np.allclose(global_map.get(point_id).position, positions[row])

    def test_record_matches_updates_state(self):
        global_map = GlobalMap()
        point = _add_point(global_map, [0, 0, 1], _descriptor(), created_frame=0)
        global_map.record_matches(np.array([0]), 4)
        assert global_map.get(point.point_id).last_matched_frame == 4
        assert global_map.get(point.point_id).times_matched == 1
        # the snapshot taken at insertion does not change
        assert point.times_matched == 0

    def test_record_matches_rejects_time_travel(self):
        global_map = GlobalMap()
        _add_point(global_map, [0, 0, 1], _descriptor(), created_frame=10)
        with pytest.raises(MapError):
            global_map.record_matches(np.array([0]), 5)

    def test_record_matches_counts_duplicate_rows_twice(self):
        global_map = GlobalMap()
        global_map.add_points([[0, 0, 1], [0, 0, 2]], [_descriptor(0), _descriptor(1)], 0)
        global_map.record_matches(np.array([1, 0, 1]), 3)
        assert global_map.get(0).times_matched == 1
        assert global_map.get(1).times_matched == 2
        assert global_map.get(1).last_matched_frame == 3

    def test_out_of_order_frame_leaves_every_array_unchanged(self):
        global_map = GlobalMap()
        global_map.add_points([[0, 0, i] for i in range(4)], [_descriptor(i) for i in range(4)], 0)
        global_map.record_matches(np.array([2]), 9)
        before = {name: getattr(global_map, name).copy() for name in _MAP_COLUMNS}
        with pytest.raises(MapError):
            # rows 0 and 1 alone would be fine; row 2 was matched in frame 9
            global_map.record_matches(np.array([0, 1, 2]), 5)
        with pytest.raises(MapError):
            global_map.record_matches(np.array([0, 4]), 10)
        for name, array in before.items():
            assert np.array_equal(getattr(global_map, name), array), name

    def test_matrices_read_only_and_in_id_order_after_adds_and_culls(self):
        global_map = GlobalMap()
        global_map.add_points([[0, 0, i] for i in range(5)], [_descriptor(i) for i in range(5)], 0)
        global_map.record_matches(np.array([1, 3]), 10)
        assert global_map.cull(current_frame=10, ttl_frames=5) == 3
        global_map.add_points([[1, 0, i] for i in range(2)], [_descriptor(9), _descriptor(8)], 10)
        ids = global_map.point_ids()
        assert ids.tolist() == [1, 3, 5, 6]
        assert np.array_equal(global_map.position_matrix()[:, 2], [1, 3, 0, 1])
        assert np.array_equal(global_map.descriptor_matrix()[2], _descriptor(9))
        for matrix in (ids, global_map.position_matrix(), global_map.descriptor_matrix()):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0] = 0

    def test_random_operations_agree_with_a_dict_model(self):
        rng = np.random.default_rng(7)
        global_map = GlobalMap(max_points=60)
        model = {}  # point id -> [position, descriptor, last matched, times]
        next_id = 0
        frame = 0
        for _ in range(300):
            frame += int(rng.integers(0, 3))
            operation = rng.integers(0, 3)
            if operation == 0:
                count = int(rng.integers(0, 8))
                positions = rng.normal(size=(count, 3))
                descriptors = rng.integers(0, 256, (count, 32), dtype=np.uint8)
                created = global_map.add_points(positions, descriptors, frame)
                kept = min(count, 60 - len(model))
                assert created.tolist() == list(range(next_id, next_id + kept))
                for row in range(kept):
                    model[next_id] = [positions[row], descriptors[row], frame, 0]
                    next_id += 1
            elif operation == 1 and model:
                rows = rng.integers(0, len(model), int(rng.integers(1, 10)))
                global_map.record_matches(rows, frame)
                ids = sorted(model)
                for row in rows.tolist():
                    model[ids[row]][2] = frame
                    model[ids[row]][3] += 1
            else:
                ttl = int(rng.integers(1, 6))
                stale = [i for i, point in model.items() if frame - point[2] > ttl]
                assert global_map.cull(frame, ttl) == len(stale)
                for point_id in stale:
                    del model[point_id]
            ids = sorted(model)
            assert global_map.point_ids().tolist() == ids
            assert len(global_map) == len(model)
            if ids:
                assert np.array_equal(
                    global_map.position_matrix(), np.stack([model[i][0] for i in ids])
                )
                assert np.array_equal(
                    global_map.descriptor_matrix(), np.stack([model[i][1] for i in ids])
                )
            for point_id in ids:
                point = global_map.get(point_id)
                assert point.last_matched_frame == model[point_id][2]
                assert point.times_matched == model[point_id][3]


class TestKeyframePolicy:
    def test_first_frame_is_keyframe(self):
        policy = KeyframePolicy()
        decision = policy.evaluate(Pose.identity())
        assert decision.is_keyframe
        assert decision.reason == "first frame"

    def test_small_motion_is_not_keyframe(self):
        policy = KeyframePolicy(TrackerConfig(keyframe_translation_m=0.1, keyframe_rotation_rad=0.2))
        policy.evaluate(Pose.identity())
        decision = policy.evaluate(Pose(np.eye(3), np.array([0.01, 0, 0])))
        assert not decision.is_keyframe

    def test_translation_threshold_triggers(self):
        policy = KeyframePolicy(TrackerConfig(keyframe_translation_m=0.05, keyframe_rotation_rad=10.0))
        policy.evaluate(Pose.identity())
        decision = policy.evaluate(Pose(np.eye(3), np.array([0.2, 0, 0])))
        assert decision.is_keyframe
        assert decision.reason == "translation threshold"

    def test_rotation_threshold_triggers(self):
        policy = KeyframePolicy(TrackerConfig(keyframe_translation_m=10.0, keyframe_rotation_rad=0.05))
        policy.evaluate(Pose.identity())
        decision = policy.evaluate(Pose(so3_exp(np.array([0, 0.2, 0])), np.zeros(3)))
        assert decision.is_keyframe
        assert decision.reason == "rotation threshold"

    def test_threshold_measured_from_last_keyframe(self):
        policy = KeyframePolicy(TrackerConfig(keyframe_translation_m=0.1, keyframe_rotation_rad=10.0))
        policy.evaluate(Pose.identity())
        # two small steps that only together exceed the threshold
        policy.evaluate(Pose(np.eye(3), np.array([0.06, 0, 0])))
        decision = policy.evaluate(Pose(np.eye(3), np.array([0.12, 0, 0])))
        assert decision.is_keyframe

    def test_keyframe_ratio(self):
        policy = KeyframePolicy(TrackerConfig(keyframe_translation_m=100.0, keyframe_rotation_rad=100.0))
        for i in range(4):
            policy.evaluate(Pose(np.eye(3), np.array([0.001 * i, 0, 0])))
        assert policy.keyframe_ratio == pytest.approx(0.25)
