#!/usr/bin/env python3
"""Quickstart: extract RS-BRIEF features, match two frames, estimate the motion.

This walks the core public API end to end on two synthetically rendered RGB-D
frames:

1. render two views of a textured scene from known camera poses,
2. extract ORB features with the RS-BRIEF descriptor (the paper's pattern),
3. match them by Hamming distance,
4. estimate the relative camera pose with PnP + RANSAC, then refine it on
   the inliers with pose optimisation; both run the one Levenberg-Marquardt
   pose solver, ``repro.geometry.refine_pose``, PnP plain and pose
   optimisation with Huber weights,
5. compare against the ground-truth motion.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ExtractorConfig, PyramidConfig
from repro.dataset import wall_scene
from repro.features import OrbExtractor
from repro.geometry import PinholeCamera, PnpRansac, Pose, RansacConfig
from repro.matching import BruteForceMatcher
from repro.optimization import PoseOptimizer


def main() -> None:
    # -- 1. render two views of a textured wall --------------------------------
    camera = PinholeCamera.tum_freiburg1().scaled(0.5)  # 320 x 240
    scene = wall_scene(distance=2.5)
    pose_a = Pose.identity()
    # the second camera is 6 cm to the right and 2 cm forward
    pose_b = Pose(np.eye(3), np.array([-0.06, 0.0, -0.02]))
    view_a = scene.render(camera, pose_a)
    view_b = scene.render(camera, pose_b)
    print(f"rendered two {camera.width}x{camera.height} frames of the wall scene")

    # -- 2. extract RS-BRIEF features -------------------------------------------
    config = ExtractorConfig(
        image_width=camera.width,
        image_height=camera.height,
        pyramid=PyramidConfig(num_levels=2),
        max_features=500,
        use_rs_brief=True,
    )
    extractor = OrbExtractor(config)
    features_a = extractor.extract(view_a.image)
    features_b = extractor.extract(view_b.image)
    print(
        f"extracted {len(features_a.features)} / {len(features_b.features)} features "
        f"({features_a.profile.keypoints_detected} FAST corners detected in frame A)"
    )

    # -- 3. match descriptors ----------------------------------------------------
    matcher = BruteForceMatcher()
    matches = matcher.match(features_a.descriptor_matrix(), features_b.descriptor_matrix())
    distances = [m.distance for m in matches]
    print(
        f"matched {len(matches)} features, median Hamming distance "
        f"{int(np.median(distances))} bits"
    )

    # -- 4. PnP + RANSAC pose estimation ------------------------------------------
    # back-project frame-A features to 3-D using the rendered depth (frame A is
    # the world frame here), observe them in frame B
    pixels_a = features_a.keypoint_array()
    pixels_b = features_b.keypoint_array()
    points_world = []
    observations = []
    observed_depths = []
    for match in matches:
        xa, ya = pixels_a[match.query_index]
        depth = float(view_a.depth[int(round(ya)), int(round(xa))])
        if depth <= 0:
            continue
        points_world.append(camera.back_project(xa, ya, depth))
        xb, yb = pixels_b[match.train_index]
        observations.append([xb, yb])
        observed_depths.append(float(view_b.depth[int(round(yb)), int(round(xb))]))
    points_world = np.array(points_world)
    observations = np.array(observations)
    observed_depths = np.array(observed_depths)
    ransac = PnpRansac(camera, RansacConfig(num_iterations=128, inlier_threshold_px=3.0))
    estimate = ransac.estimate(points_world, observations, observed_depths=observed_depths)
    print(f"RANSAC kept {estimate.num_inliers}/{len(points_world)} correspondences")

    # -- 5. refine with pose optimisation and compare with ground truth -------------
    optimizer = PoseOptimizer(camera)
    refined = optimizer.optimize(
        points_world[estimate.inlier_mask],
        observations[estimate.inlier_mask],
        estimate.model,
    )
    true_relative = pose_b  # frame A is the world frame
    translation_error_mm = 1000 * refined.pose.translation_distance(true_relative)
    rotation_error_deg = np.degrees(refined.pose.rotation_angle(true_relative))
    print(
        f"estimated camera motion: {refined.pose.camera_center().round(4)} m "
        f"(ground truth {true_relative.camera_center().round(4)} m)"
    )
    print(
        f"pose error: {translation_error_mm:.1f} mm translation, "
        f"{rotation_error_deg:.3f} deg rotation, "
        f"reprojection RMSE {refined.final_rmse_px:.2f} px"
    )


if __name__ == "__main__":
    main()
