"""The retained feature set stays arrays-first from the extractor to the tracker.

:class:`~repro.features.Feature` objects are a lazy view for callers that
ask for them.  The SLAM loop, the result codec and process-served
extraction never build one: with ``Feature.__post_init__`` patched to
raise, any construction on those paths fails this test.
"""

import numpy as np

from repro.cluster import ClusterServer
from repro.features import Feature, OrbExtractor
from repro.cluster.resultpack import pack_into, packed_nbytes, unpack_result
from repro.slam import SlamSystem


def test_hot_paths_build_no_feature_objects(
    monkeypatch, tiny_sequence, tiny_slam_config
):
    def forbidden(self):
        raise AssertionError("a Feature object was built on an arrays-first path")

    monkeypatch.setattr(Feature, "__post_init__", forbidden)

    run = SlamSystem(tiny_slam_config).run(tiny_sequence, max_frames=3)
    assert run.tracking_success_ratio == 1.0

    extraction = OrbExtractor(tiny_slam_config.extractor).extract(
        tiny_sequence[0].image
    )
    assert extraction.feature_count > 50
    buffer = np.empty(packed_nbytes(extraction), dtype=np.uint8)
    pack_into(extraction, buffer)
    assert unpack_result(buffer).feature_records() == extraction.feature_records()

    # fork-started workers inherit the patched class
    with ClusterServer(
        tiny_slam_config.extractor, num_workers=1, start_method="fork"
    ) as server:
        served = server.submit(tiny_sequence[0].image).result(timeout=60)
    assert served.feature_records() == extraction.feature_records()
