"""Golden tracking: the tracker's per-frame output on VGA and QVGA sequences.

The golden digests pin extraction; these values pin what the tracker makes
of it: windowed tracking, where each frame is matched through the
projection window under the previous pose and no frame here needs the
brute-force recovery.  Six seeded fr1/desk 640x480 frames and twelve seeded
fr1/xyz 320x240 frames run through a default :class:`~repro.slam.SlamSystem`, and
each frame's tracked and key-frame flags, match and inlier counts, RANSAC
iterations and pose-optimisation LM iterations must equal the values below
exactly.  Poses are compared within 1e-9 rather than by digest, because the
last bits of LAPACK/BLAS results may differ between CPUs.  A change meant to
be bit-identical must leave every value as it is.
"""

import numpy as np
import pytest

from repro.config import ExtractorConfig, SlamConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.geometry import so3_log
from repro.slam import SlamSystem

#: Per frame: (tracked, is_keyframe, num_matches, num_inliers,
#: ransac_iterations, lm_iterations, rotation vector, translation).
DESK_VGA = [
    (1, 1, 0, 0, 0, 0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    (1, 1, 466, 327, 18, 5, (0.0035289815610750736, -0.07473787001305725, -0.06962715880233422), (-0.03941386319681154, -0.04868704095595187, -0.09121833923614087)),
    (1, 1, 620, 568, 5, 5, (0.005200975348280994, -0.045921892451917225, -0.13970486999234769), (-0.167612874132416, -0.0282758926515772, -0.14961305830972213)),
    (1, 1, 584, 506, 7, 5, (-0.003196118395901284, 0.049198411096417614, -0.21030637310140915), (-0.33972505619222804, 0.04841059019712766, -0.1258374157767045)),
    (1, 1, 612, 566, 4, 5, (-0.010369216660254428, 0.07667744243422761, -0.2797854609884556), (-0.45433668320165194, 0.09794234260973182, -0.053145532860521004)),
    (1, 1, 393, 316, 9, 5, (0.00014056155765572228, 0.00048235798756795346, -0.3500923245051588), (-0.4943811644656205, 0.08971228580089008, 0.0013993174381071933)),
]

XYZ_QVGA = [
    (1, 1, 0, 0, 0, 0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    (1, 1, 686, 598, 6, 5, (-0.001592071888758178, 0.008457949724611901, 0.00029746936159314114), (-0.19899737534454093, -0.12978777340856712, -0.024999040814590087)),
    (1, 1, 776, 744, 3, 5, (0.0017588017926142866, 0.008956775662013484, 0.0006916140120539804), (-0.2744930275326508, 0.002135105225235267, -0.07345933131618852)),
    (1, 1, 757, 724, 4, 5, (0.002483679555801783, 0.004195793203797677, 0.0006584463136819), (-0.18651914336446385, 0.13202273167467377, -0.12893692459200384)),
    (1, 1, 714, 666, 4, 1, (0.0011750499073846913, 0.007564600791431812, 0.0007619873334277531), (-0.019647023523078767, 0.0024027446702445956, -0.14767617575166844)),
    (1, 1, 717, 678, 3, 1, (-0.0004644192809854882, 0.004089144774542772, -0.00020790543049065412), (0.1651263619722955, -0.1256352232424803, -0.12263516614644465)),
    (1, 1, 835, 811, 3, 5, (0.002171661339203284, 0.005741659329357242, 0.0002529204600911137), (0.23412671565877757, 0.0031482429933005576, -0.07278267281917462)),
    (1, 1, 779, 754, 3, 5, (0.003207484298879945, 0.010004211004296923, 0.0003541283017477527), (0.14954420724380613, 0.1332502758893454, -0.01781525669146225)),
    (1, 1, 939, 926, 2, 5, (-0.00023473986022579742, 0.0004623945359858705, -1.4645034063521477e-05), (-0.001040644874887664, -0.0005314844653763687, -0.00018240328405614003)),
    (1, 1, 884, 865, 3, 5, (-0.0003402944764639051, 0.00845033303412147, 0.00022212441546351925), (-0.19879487290117617, -0.12656222151627744, -0.02500152228038297)),
    (1, 1, 914, 910, 2, 5, (0.0015323019460619408, 0.009037976987033864, 0.0007342102976241919), (-0.2747401198062158, 0.0013752575699481962, -0.07416458597747237)),
    (1, 1, 923, 920, 2, 1, (0.002250297215631268, 0.004893251901231475, 0.0008723549036490171), (-0.18875386030011182, 0.13144136350033012, -0.1286672209237588)),
]


@pytest.mark.parametrize(
    "name, width, height, golden",
    [("fr1/desk", 640, 480, DESK_VGA), ("fr1/xyz", 320, 240, XYZ_QVGA)],
    ids=["desk-vga", "xyz-qvga"],
)
def test_tracking_output_is_pinned(name, width, height, golden):
    sequence = make_sequence(
        SequenceSpec(
            name=name,
            num_frames=len(golden),
            image_width=width,
            image_height=height,
            image_noise_std=2.0,
            depth_noise_std_m=0.005,
            seed=1,
        )
    )
    config = SlamConfig(extractor=ExtractorConfig(image_width=width, image_height=height))
    frames = SlamSystem(config).run(sequence).frame_results
    counters = [
        (
            int(frame.tracked),
            int(frame.is_keyframe),
            frame.num_matches,
            frame.num_inliers,
            frame.workload.ransac_iterations,
            frame.workload.lm_iterations,
        )
        for frame in frames
    ]
    assert counters == [row[:6] for row in golden]
    for frame, row in zip(frames, golden):
        np.testing.assert_allclose(so3_log(frame.pose.rotation), row[6], rtol=0, atol=1e-9)
        np.testing.assert_allclose(frame.pose.translation, row[7], rtol=0, atol=1e-9)
