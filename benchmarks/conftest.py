"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure of the paper
and prints the reproduced rows next to the paper's reported values, so that
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction report.
Heavy experiments run at reduced scale through ``benchmark.pedantic`` with a
single round; micro-kernels use the default timing loop.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import ExtractorConfig, PyramidConfig, SlamConfig, TrackerConfig
from repro.dataset import SequenceSpec, make_sequence
from repro.image import random_blocks


def print_section(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def write_report_file(name: str, report: dict) -> None:
    """Also write a report as JSON when ``BENCH_REPORT_DIR`` is set.

    Reports always print to stdout; CI sets the environment variable so the
    same JSON lands in a directory it uploads as a build artifact.
    """
    report_dir = os.environ.get("BENCH_REPORT_DIR")
    if not report_dir:
        return
    os.makedirs(report_dir, exist_ok=True)
    with open(os.path.join(report_dir, name), "w") as handle:
        json.dump(report, handle, indent=2)


@pytest.fixture(scope="session")
def vga_image():
    """A full-resolution 640x480 texture (the paper's image size)."""
    return random_blocks(480, 640, block=12, seed=3)


@pytest.fixture(scope="session")
def small_image():
    """A quarter-resolution texture for software-pipeline micro-benchmarks."""
    return random_blocks(240, 320, block=12, seed=4)


@pytest.fixture(scope="session")
def bench_slam_config():
    """SLAM configuration used by the accuracy benchmarks (reduced resolution)."""
    return SlamConfig(
        extractor=ExtractorConfig(
            image_width=320,
            image_height=240,
            pyramid=PyramidConfig(num_levels=2),
            max_features=400,
        ),
        tracker=TrackerConfig(ransac_iterations=64, pose_iterations=10),
    )


@pytest.fixture(scope="session")
def bench_sequence():
    """A 10-frame fr1/desk-style sequence at 320x240 shared across benchmarks."""
    return make_sequence(
        SequenceSpec(name="fr1/desk", num_frames=10, image_width=320, image_height=240)
    )


class _OneShotBenchmark:
    """Stand-in for pytest-benchmark's ``benchmark`` fixture: one call, no stats.

    Both forms the benches use, ``benchmark(fn, *args, **kwargs)`` and
    ``benchmark.pedantic(fn, args=..., kwargs=..., rounds=..., ...)``, run
    the target exactly once and return its result, so the reproduced tables
    still print and their assertions still run without the plugin.
    """

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1, warmup_rounds=0):
        return target(*args, **(kwargs or {}))


class _BenchmarkFallback:
    """Plugin providing :class:`_OneShotBenchmark` as the ``benchmark`` fixture."""

    @pytest.fixture
    def benchmark(self):
        return _OneShotBenchmark()


def pytest_configure(config):
    """Register the one-shot ``benchmark`` fixture when pytest-benchmark is
    absent (not installed, or disabled with ``-p no:benchmark``)."""
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(_BenchmarkFallback(), "benchmark-fallback")


def pytest_addoption(parser):
    """``--trace-dir <path>`` opts any bench into Chrome trace export.

    (``--trace`` itself is taken by pytest's own pdb-on-start option.)
    """
    parser.addoption(
        "--trace-dir",
        action="store",
        default=None,
        metavar="PATH",
        help=(
            "write Chrome trace-event JSON from traced benchmark runs to "
            "PATH (a directory; one file per bench).  The REPRO_TRACE "
            "environment variable is the equivalent opt-in for CI."
        ),
    )


@pytest.fixture(scope="session")
def trace_dir(request):
    """Directory for Chrome trace artifacts, or ``None`` (tracing off).

    Resolved from ``--trace-dir`` first, then the ``REPRO_TRACE``
    environment variable, so local runs (``pytest benchmarks/
    --trace-dir out/``) and
    CI (``REPRO_TRACE=bench-reports``) can collect Perfetto-loadable
    traces from any bench that serves frames.
    """
    path = request.config.getoption("--trace-dir") or os.environ.get("REPRO_TRACE")
    if not path:
        return None
    os.makedirs(path, exist_ok=True)
    return path


def export_trace_artifact(trace, trace_dir, name):
    """Write ``trace`` as Chrome trace JSON into ``trace_dir`` (if opted in).

    Returns the written path or ``None``.  ``docs/observability.md`` has
    the Perfetto how-to for the resulting file.
    """
    if trace_dir is None:
        return None
    path = os.path.join(trace_dir, name)
    return trace.export_chrome_trace(path)
