"""Fast self-test of the benchmark on a tiny scene.

Run with ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import copy
import json
import math

import pytest

import bench
from dysplat import evaluation, rasterizer, synth, trainer

TINY = {
    "width": 32, "height": 32, "frames": 6, "fx": 35.0, "fy": 35.0,
    "camera": {"kind": "linear", "velocity": [0.015, 0.006, 0.0]},
    "background": [{"center": [0.0, 0.0, 7.0], "size": [7.6, 7.6], "grid": [8, 8]}],
    "actors": [{"center": [-0.6, -0.3, 4.5], "size": [0.9, 0.9], "grid": [4, 4],
                "motion": {"kind": "linear", "velocity": [0.03, 0.012, 0.0]}}],
    "tracks_per_actor": 12,
    "bench": {
        "mode": "train", "estimate_masks": True,
        "config": {"iters_total": 6, "iters_static_warmup": 2, "iters_rigid_warmup": 2,
                   "transition_threshold": 2.6, "transition_check_every": 1,
                   "checkpoint_every": 3, "holdout_every": 3, "n_static_init": 100,
                   "n_bases": 2, "threads": 1},
    },
}
TINY_RENDER = copy.deepcopy(TINY)
TINY_RENDER["bench"].update(mode="render")
TINY_RENDER["bench"]["config"].update(threads=2)

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    return bench.run(workload, seed=3, seconds=0, trace=trace)


@pytest.mark.parametrize("workload", [TINY, TINY_RENDER], ids=["train", "render"])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result, details = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0, details["checks"]
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    units = bench.metric_units(trace)
    for m in named:
        assert units[m["name"]] == m["unit"]
        value = result["metrics"][m["name"]]
        assert isinstance(value, (int, float)) and math.isfinite(value), m["name"]


def test_counts_repeat_exactly():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    first = _run(TINY, trace=True)[0]["metrics"]
    second = _run(TINY, trace=True)[0]["metrics"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["rasterizer.splats"] > 0 and first["primitives.checkpoint_bytes"] > 0


def test_step_self_times_add_up_to_the_step():
    result, details = _run(TINY, trace=True)
    pairs = details["step_sums"]
    traced_iterations = 2 * TINY["bench"]["config"]["iters_total"]   # fits 0 and 2 traced
    assert len(pairs) == traced_iterations
    for step_ms, self_ms in pairs:
        assert self_ms == pytest.approx(step_ms, rel=1e-3, abs=0.05)
    m = result["metrics"]
    # each iteration calls these layers once; a call that bypassed its wrapper
    # would leave the count short and its time in the remainders below
    for span in ("rasterizer.backward", "rasterizer.chain", "losses.photometric", "trainer.adam"):
        assert m[f"{span}_calls"] == traced_iterations, span
    remainder = m["trainer.loop_other_total_ms"] + m["trainer.iteration_other_total_ms"]
    assert remainder < 0.25 * sum(step_ms for step_ms, _ in pairs)


def test_tile_counts_follow_the_rasterizer_tile_test():
    _, spec, config = bench._spec_and_config(TINY_RENDER, seed=3)
    ds = synth.generate_synthetic(spec)
    batch = rasterizer.prepare_splats(bench.initial_set(ds, config), ds.cameras[0], 0)
    view = rasterizer._OrderedView(batch)
    tiles = list(rasterizer._tile_ranges(batch.width, batch.height))
    expected = [len(rasterizer._splats_in_tile(view, *tile)) for tile in tiles]
    per_tile, pairs = bench.tile_counts(batch.mean2d, batch.radii, batch.width, batch.height)
    assert per_tile == expected and sum(expected) > 0
    assert pairs == sum(n * (y1 - y0) * (x1 - x0) for n, (y0, y1, x0, x1) in zip(expected, tiles))


def test_wrappers_are_removed_after_a_run():
    names = [(trainer, "train"), (trainer, "train_iteration"), (trainer, "rasterize_backward"),
             (trainer, "build_supervision"), (rasterizer, "_chain_to_parameters"),
             (evaluation, "render_view"), (evaluation, "evaluate"), (synth, "generate_synthetic")]
    before = [getattr(mod, attr) for mod, attr in names]
    _run(TINY, trace=True)
    assert [getattr(mod, attr) for mod, attr in names] == before


def test_render_views_uses_the_recon_train_scene():
    recon = bench.load_workload("recon-train")
    views = bench.load_workload("render-views")
    recon.pop("bench")
    views.pop("bench")
    assert recon == views
