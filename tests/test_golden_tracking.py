"""Golden tracking: the tracker's per-frame output on VGA and QVGA sequences.

The golden digests pin extraction; these values pin what the tracker makes
of it.  Six seeded fr1/desk 640x480 frames and twelve seeded fr1/xyz
320x240 frames run through a default :class:`~repro.slam.SlamSystem`, and
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
    (1, 1, 497, 385, 12, 5, (0.002987891724930732, -0.07542389272194992, -0.06981418377336099), (-0.03739902869190934, -0.05066723727422683, -0.09077460096099094)),
    (1, 1, 560, 444, 11, 5, (0.004667514205264131, -0.04675406498362462, -0.1398634759812095), (-0.16536119895513268, -0.030074345196254446, -0.14993696674419119)),
    (1, 1, 560, 483, 7, 5, (-0.004330343035292765, 0.04840413753851059, -0.2101947982097496), (-0.3377326318654083, 0.04439667242907433, -0.12600825172463276)),
    (1, 1, 533, 456, 8, 5, (-0.012082246952827495, 0.07627839739738619, -0.2795677728449577), (-0.4536132192247002, 0.09208827624485558, -0.05326625637185181)),
    (1, 1, 508, 447, 6, 5, (0.00025047624073471826, 0.0007244072228038115, -0.3499975261696066), (-0.49537758921135516, 0.08960265940459704, 0.00040246903134955514)),
]

XYZ_QVGA = [
    (1, 1, 0, 0, 0, 0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    (1, 1, 615, 532, 7, 5, (-0.000650076738707154, 0.008725407115808215, 0.00030310515114974573), (-0.1996997921002302, -0.1276049976945476, -0.024889849587412333)),
    (1, 1, 714, 666, 4, 5, (0.0014414893316396424, 0.008998311679418343, 0.0008278418363518572), (-0.2744919897461724, 0.001029884611504303, -0.07375463650601405)),
    (1, 1, 738, 664, 5, 1, (0.0018708949298338244, 0.0036450610233559008, 0.0007133717418332656), (-0.18495395228146877, 0.13032990165903735, -0.12901527149283462)),
    (1, 1, 723, 658, 5, 5, (0.0007932690132597704, 0.007688387280266058, 0.00026261773231801134), (-0.019356202260733174, 0.0013330134678034484, -0.1480810485714724)),
    (1, 1, 737, 690, 4, 1, (-0.0019499247521231318, 0.00406459719675168, 8.742377657675404e-05), (0.16615044655597339, -0.129560348990736, -0.1220062725793774)),
    (1, 1, 833, 804, 3, 5, (0.0003753965536997568, 0.006451843417798522, 0.0003732922792514854), (0.2326572259263623, -0.0016490139532265118, -0.07287987843421143)),
    (1, 1, 759, 720, 4, 4, (0.0011479314296480342, 0.01046309050668, 0.0003475356474847842), (0.14847277995110025, 0.1277722595131936, -0.018020082186533167)),
    (1, 1, 979, 976, 2, 1, (-1.376900128686679e-06, -6.612053204026532e-05, -0.00012226819428428948), (0.0004809202246966545, 2.607867095536733e-06, 3.664223286002668e-06)),
    (1, 1, 941, 931, 2, 4, (-0.00032522472730555534, 0.008060159615522438, 0.000398853532865818), (-0.1977898430045263, -0.12684009308430444, -0.024674468360715112)),
    (1, 1, 952, 947, 2, 5, (0.0008616819500817886, 0.009011930305640329, 0.0007614361817822353), (-0.27454690297710754, -0.0004856503179000609, -0.07414956310138514)),
    (1, 1, 956, 944, 2, 5, (0.0024319716902105777, 0.00406439139780989, 0.0006821188665597168), (-0.18622443643356273, 0.1318924286205351, -0.12880505176194118)),
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
