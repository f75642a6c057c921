"""Chaos recovery: serving correctness and cost under a seeded kill storm.

The robustness claim of ``docs/serving.md`` (Failure semantics) is that a
supervised :class:`~repro.cluster.ClusterServer` turns worker crashes into
*retries*, not failures: every submitted frame still returns bit-identical
to sequential extraction, in submission order, while the supervisor
respawns the killed workers and, after close, nothing is left admitted or
pending.  This
report drives the same frame batch through a clean run and through a
seeded :class:`~repro.chaos.FaultPlan` kill storm, and records what the
storm cost: restarts, retries, requeued jobs, the time for the pool to
heal back to full strength after the last frame, and the throughput ratio
against the clean run.

On a single-core host (CI) the throughput ratio mostly measures respawn
overhead, so the assertions are about correctness and counters — recovery
happened (``restarts > 0``), every admission came back
(``drained_after_close``), no frame failed — never about timing bars.
``cpu_count`` is recorded in the JSON so multi-core numbers read in
context.

The quick tier (2 workers, kill every 6th of 24 frames, seed 7) runs on
every push as the CI chaos smoke; the ``slow``-marked sweep storms every
fault kind across seeds.  Set ``BENCH_REPORT_DIR`` to also write
``bench_chaos_recovery.json`` (CI uploads it as a build artifact), or run
``python benchmarks/bench_chaos_recovery.py --quick`` standalone.
"""

import json
import os
import sys
import time

import pytest

from repro.chaos import FaultPlan
from repro.cluster import ClusterServer, SupervisorConfig
from repro.config import ExtractorConfig, PyramidConfig
from repro.features import OrbExtractor
from repro.image import random_blocks

from conftest import print_section, write_report_file

NUM_FRAMES = 24
NUM_WORKERS = 2
KILL_EVERY = 6
SEED = 7

#: Fast restarts so the benchmark measures recovery, not backoff sleeping.
SUPERVISION = SupervisorConfig(
    restart_backoff_s=0.02, restart_backoff_max_s=0.5, heartbeat_timeout_s=30.0
)


def _chaos_config():
    return ExtractorConfig(
        image_width=160,
        image_height=120,
        pyramid=PyramidConfig(num_levels=2),
        max_features=150,
    )


def _chaos_images(config):
    return [
        random_blocks(config.image_height, config.image_width, block=9, seed=seed)
        for seed in range(NUM_FRAMES)
    ]


def _feature_key(result):
    return result.feature_records()  # the repo-wide bit-identity key


def _serve_batch(config, images, plan=None, num_workers=NUM_WORKERS):
    """One cluster run over the batch.

    Returns ``(keys, seconds, heal_s, healed, stats, drained)``; ``drained``
    is the admission audit after close: nothing admitted, nothing pending.
    """
    server = ClusterServer(
        config, num_workers=num_workers, supervision=SUPERVISION, fault_plan=plan
    )
    with server:
        start = time.perf_counter()
        futures = [
            server.submit(image, frame_id=index)
            for index, image in enumerate(images)
        ]
        keys = [_feature_key(future.result(timeout=300)) for future in futures]
        elapsed = time.perf_counter() - start
        # recovery time: the last frame is served, but the pool may still be
        # respawning its final victim — time how long until full strength
        heal_start = time.perf_counter()
        deadline = heal_start + 60.0
        while (
            len(server.alive_worker_ids()) < num_workers
            and time.perf_counter() < deadline
        ):
            time.sleep(0.01)
        heal_s = time.perf_counter() - heal_start
        healed = len(server.alive_worker_ids())
    drained = not server._pending and server.stats.queue_depth == 0
    return keys, elapsed, heal_s, healed, server.stats.as_dict(), drained


def _storm_report(config, images, plan, baseline_keys, clean_s):
    keys, storm_s, heal_s, healed, stats, drained = _serve_batch(
        config, images, plan=plan
    )
    return {
        "bit_identical_in_order": keys == baseline_keys,
        "frames": len(images),
        "storm_s": round(storm_s, 4),
        "throughput_fps": round(len(images) / storm_s, 2),
        "throughput_vs_clean": round(clean_s / storm_s, 3) if storm_s else None,
        "heal_after_last_frame_s": round(heal_s, 4),
        "pool_healed_to": healed,
        "restarts": stats["restarts"],
        "retries": stats["retries"],
        "requeued": stats["requeued"],
        "frames_failed": stats["frames_failed"],
        "drained_after_close": drained,
        "plan": plan.report(),
        "stats": stats,
    }


def test_chaos_recovery_quick():
    """CI chaos smoke: 2 workers, seeded kill storm, structured JSON report."""
    config = _chaos_config()
    images = _chaos_images(config)
    extractor = OrbExtractor(config)
    baseline_keys = [_feature_key(extractor.extract(image)) for image in images]

    _, clean_s, _, _, _, clean_drained = _serve_batch(config, images, plan=None)
    plan = FaultPlan.storm(
        frames=NUM_FRAMES, every=KILL_EVERY, num_workers=NUM_WORKERS, seed=SEED
    )
    storm = _storm_report(config, images, plan, baseline_keys, clean_s)

    report = {
        "cpu_count": os.cpu_count() or 1,
        "workload": {
            "frames": NUM_FRAMES,
            "workers": NUM_WORKERS,
            "kill_every": KILL_EVERY,
            "seed": SEED,
        },
        "clean": {
            "elapsed_s": round(clean_s, 4),
            "throughput_fps": round(NUM_FRAMES / clean_s, 2),
            "drained_after_close": clean_drained,
        },
        "storm": storm,
    }
    print_section("chaos recovery smoke: 2 workers, seeded kill storm")
    print(json.dumps(report, indent=2))
    write_report_file("bench_chaos_recovery.json", report)

    assert storm["bit_identical_in_order"]
    assert storm["restarts"] > 0  # the storm actually hit, and we recovered
    assert storm["requeued"] > 0
    assert storm["frames_failed"] == 0
    assert storm["drained_after_close"]
    assert report["clean"]["drained_after_close"]
    assert storm["pool_healed_to"] == NUM_WORKERS


@pytest.mark.slow
def test_chaos_recovery_storm_sweep():
    """Storm every fault kind across seeds; correctness must hold throughout."""
    config = _chaos_config()
    images = _chaos_images(config)
    extractor = OrbExtractor(config)
    baseline_keys = [_feature_key(extractor.extract(image)) for image in images]
    clean_s = _serve_batch(config, images, plan=None)[1]

    rows = []
    for seed in (1, 2, 3):
        plan = FaultPlan.storm(
            frames=NUM_FRAMES,
            every=4,
            kinds=("kill", "stall"),
            num_workers=NUM_WORKERS,
            stall_s=0.2,
            seed=seed,
        )
        row = _storm_report(config, images, plan, baseline_keys, clean_s)
        row["seed"] = seed
        rows.append(row)

    report = {"cpu_count": os.cpu_count() or 1, "rows": rows}
    print_section("chaos recovery sweep: mixed-kind storms across seeds")
    print(json.dumps(report, indent=2))
    write_report_file("bench_chaos_recovery_sweep.json", report)

    for row in rows:
        assert row["bit_identical_in_order"]
        assert row["frames_failed"] == 0
        assert row["drained_after_close"]


if __name__ == "__main__":
    if "--quick" in sys.argv:
        test_chaos_recovery_quick()
    else:
        test_chaos_recovery_quick()
        test_chaos_recovery_storm_sweep()
