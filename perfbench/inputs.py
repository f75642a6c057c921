"""Seeded benchmark inputs: synthetic TUM-style RGB-D sequences.

The seed drives the sensor noise of the rendered frames, so two seeds give
different images and depths of the same scene and trajectory.  Noise stays
small enough that every frame still tracks.  Rendering is never timed, and
the program receives only the rendered frames.
"""

from __future__ import annotations

from repro.dataset import RgbdSequence, SequenceSpec, make_sequence

#: Sensor noise, in grey levels and metres, applied to every rendered frame.
IMAGE_NOISE_STD = 2.0
DEPTH_NOISE_STD_M = 0.005


def render_sequence(
    name: str, num_frames: int, width: int, height: int, seed: int
) -> RgbdSequence:
    """Render ``num_frames`` frames of the named sequence with seeded noise."""
    return make_sequence(
        SequenceSpec(
            name=name,
            num_frames=num_frames,
            image_width=width,
            image_height=height,
            image_noise_std=IMAGE_NOISE_STD,
            depth_noise_std_m=DEPTH_NOISE_STD_M,
            seed=seed,
        )
    )
