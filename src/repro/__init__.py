"""eSLAM reproduction: an energy-efficient ORB-SLAM accelerator, in Python.

This package reproduces "eSLAM: An Energy-Efficient Accelerator for Real-Time
ORB-SLAM on FPGA Platform" (Liu, Yang, Chen, Zhao -- DAC 2019):

* :mod:`repro.features` -- the RS-BRIEF descriptor (the paper's algorithmic
  contribution), FAST/Harris/NMS/orientation and the full ORB extractor.
  It models both the original and the rescheduled (streaming) workflow in
  its operation counts, and in both it describes only the features the
  heap keeps.
* :mod:`repro.engines` -- the extraction engines behind the extractor
  (smoothing, FAST + Harris + NMS, orientation, description): the dense,
  scalar ``reference`` path, the fused, batched ``vectorized`` default
  (bit-identical) and the fixed-point ``hwexact`` engine (see
  ``docs/engines.md``).  ``ExtractorConfig.engine`` picks one.
* :mod:`repro.pyramid` -- the pyramid provider feeding those engines one
  eagerly built pyramid per frame (see ``docs/pyramid.md``).
* :mod:`repro.cluster` -- the :class:`~repro.cluster.ClusterServer`, the
  one frame server: many frames in flight across worker processes, one
  engine per worker, frames and results on per-worker queues (see
  ``docs/serving.md``).
* :mod:`repro.matching`, :mod:`repro.geometry`, :mod:`repro.optimization`,
  :mod:`repro.slam` -- the software SLAM pipeline (matching, PnP + RANSAC,
  Levenberg-Marquardt pose optimisation, mapping, evaluation).
* :mod:`repro.dataset` -- synthetic TUM-style RGB-D sequences with ground
  truth (the offline stand-in for the TUM benchmark).
* :mod:`repro.hw` -- the cycle-approximate model of the FPGA accelerator
  (ORB Extractor, BRIEF Matcher, Image Resizer, resources, AXI/SDRAM).
* :mod:`repro.platforms` -- calibrated runtime/power models of the ARM
  Cortex-A9, Intel i7 and eSLAM platforms plus the parallelised pipeline.
* :mod:`repro.analysis` -- experiment runners for every table and figure.

Quick start::

    from repro.config import SlamConfig
    from repro.dataset import SequenceSpec, make_sequence
    from repro.slam import SlamSystem

    sequence = make_sequence(SequenceSpec(name="fr1/xyz", num_frames=30,
                                          image_width=320, image_height=240))
    result = SlamSystem(SlamConfig()).run(sequence)
    print(result.ate().rmse_cm, "cm RMSE")
"""

from .config import (
    AcceleratorConfig,
    DescriptorConfig,
    ExtractorConfig,
    FastConfig,
    MatcherConfig,
    PyramidConfig,
    SlamConfig,
    TrackerConfig,
)
from .errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "SlamConfig",
    "ExtractorConfig",
    "DescriptorConfig",
    "FastConfig",
    "PyramidConfig",
    "MatcherConfig",
    "TrackerConfig",
    "AcceleratorConfig",
]
