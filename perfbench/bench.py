"""Benchmark of dysplat's fit, render and dynamic-mask paths.

A run executes one workload (``workloads/<name>.json``: a scene spec that
``dysplat synth --spec`` reads, plus a ``bench`` block) at one seed and ends
by printing one JSON line with the metrics named in ``BENCHMARK.json``.

Untraced runs only stamp ``train_iteration`` entries, ``train`` entry and
exit, and time each ``render_view`` call. Traced runs also replace module
attributes of dysplat (``dysplat.trainer.rasterize_backward`` and the like)
with timed wrappers that call the original. That works without touching
``src/`` because ``train``, ``train_iteration``, ``build_supervision``,
``render_view`` and ``rasterize_backward`` look these names up as module
globals at call time. A span's self time is its duration minus the time of
the spans it encloses.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from dysplat import evaluation, rasterizer, synth, trainer  # noqa: E402
from dysplat.primitives import GaussianSet, TransientGaussians, parameter_tree  # noqa: E402

WORKLOAD_DIR = HERE / "workloads"
RUN_DIR = ROOT / ".bench_run"
REFERENCE_TOL = 1e-5   # acceptance criterion 1: tiled render vs brute-force oracle
REFERENCE_ROWS = 4     # oracle strip height; bounds its (splats x pixels) arrays
REPEATS = 3            # set-ups per run at least, so setup_s is a median
MIN_RENDERS = 100      # so render_ms_p90 has ten samples beyond it
RENDER_SHARE = 0.25    # training runs also render for this share of their loop
#                        time, between the fits, so renders sample the whole run

SPAN_NAMES = (
    "synth.generate", "trainer.build_supervision", "dynmask.motion_scores",
    "sceneflow.lift", "trainer.init_static", "trainer.init_rigid",
    "trainer.loop_other", "trainer.iteration_other", "rasterizer.prepare",
    "rasterizer.forward", "rasterizer.backward", "rasterizer.chain",
    "losses.photometric", "losses.other", "trainer.adam",
    "primitives.transition", "primitives.checkpoint", "evaluation.evaluate",
)
STEP_SPAN = "trainer.loop_other"
ITERATION_SPAN = "trainer.iteration_other"


class BenchError(Exception):
    """Bad arguments or a missing workload."""


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


@contextlib.contextmanager
def _patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Recorder:
    """Step stamps, render times and, while tracing, spans and counts."""

    def __init__(self):
        self.fits = []               # one dict per train() call
        self.render_ms = []
        self.render_digests = defaultdict(set)   # frame -> digests of its renders
        self.nonfinite_renders = 0
        self.masks = []              # dynamic masks each build_supervision produced
        self.tracing = False
        self.stack = []              # open spans: [name, start, child seconds]
        self.step_self = None        # self seconds summed inside the open step
        self.self_ms = defaultdict(list)
        self.counts = Counter()
        self.batches = []            # (mean2d, radii, width, height) per traced prepare
        self.adam_states = {}

    # -- always-on stamps ---------------------------------------------------

    def stamps(self):
        """Context installing the wrappers every run needs."""
        orig_train = trainer.train
        orig_iteration = trainer.train_iteration
        orig_supervision = trainer.build_supervision
        orig_render = evaluation.render_view

        @functools.wraps(orig_train)
        def train(*args, **kwargs):
            fit = {"enter": time.perf_counter(), "starts": [], "self_sums": []}
            self.fits.append(fit)
            try:
                return orig_train(*args, **kwargs)
            finally:
                fit["exit"] = time.perf_counter()
                self._end_step()

        @functools.wraps(orig_iteration)
        def train_iteration(*args, **kwargs):
            self.fits[-1]["starts"].append(time.perf_counter())
            if not self.tracing:
                return orig_iteration(*args, **kwargs)
            self._end_step()
            self._open(STEP_SPAN)
            self.step_self = 0.0
            self._open(ITERATION_SPAN)
            try:
                return orig_iteration(*args, **kwargs)
            finally:
                self._close()

        @functools.wraps(orig_supervision)
        def build_supervision(*args, **kwargs):
            sup = orig_supervision(*args, **kwargs)
            self.masks.append(sup.dyn_masks)
            return sup

        @functools.wraps(orig_render)
        def render_view(gset, cam, t, *args, **kwargs):
            t0 = time.perf_counter()
            out = orig_render(gset, cam, t, *args, **kwargs)
            self.render_ms.append((time.perf_counter() - t0) * 1e3)
            planes = np.concatenate([out.channel_stack(), out.alpha[..., None]], axis=-1)
            if not np.all(np.isfinite(planes)):
                self.nonfinite_renders += 1
            self.render_digests[t].add(hashlib.sha256(planes.tobytes()).hexdigest())
            return out

        return _patched([
            (trainer, "train", train),
            (trainer, "train_iteration", train_iteration),
            (trainer, "build_supervision", build_supervision),
            (evaluation, "render_view", render_view),
        ])

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.self_ms[name].append(own * 1e3)
        if self.stack:
            self.stack[-1][2] += duration
        if self.step_self is not None:
            self.step_self += own

    def _end_step(self):
        if self.step_self is None:
            return
        if self.stack[-1][0] != STEP_SPAN:
            raise AssertionError(f"span {self.stack[-1][0]} still open at step end")
        self._close()
        self.fits[-1]["self_sums"].append(self.step_self * 1e3)
        self.step_self = None

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def spans(self, enabled):
        """Trace every call into the named layers while the context is open."""
        if not enabled:
            yield
            return

        def prepared(args, kwargs, batch):
            self.batches.append((batch.mean2d, batch.radii, batch.width, batch.height))

        def scored(args, kwargs, table):
            self.counts["dynmask.frames_scored"] += len(_arg(args, kwargs, 3, "id_maps")) - 1

        def converted(args, kwargs, result):
            self.counts["primitives.converted"] += result[1]

        def saved(args, kwargs, result):
            self.counts["primitives.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

        def stepped(args, kwargs, state):
            self.adam_states[id(state)] = state

        targets = [
            (synth, "generate_synthetic", "synth.generate", None),
            (trainer, "build_supervision", "trainer.build_supervision", None),
            (trainer, "compute_motion_scores", "dynmask.motion_scores", scored),
            (trainer, "forward_scene_flow", "sceneflow.lift", None),
            (trainer, "backward_scene_flow", "sceneflow.lift", None),
            (trainer, "warped_depth_consistency", "sceneflow.lift", None),
            (trainer, "init_static", "trainer.init_static", None),
            (trainer, "init_rigid_from_tracks", "trainer.init_rigid", None),
            (trainer, "transition_rigid_to_transient", "primitives.transition", converted),
            (trainer, "save_checkpoint", "primitives.checkpoint", saved),
            (trainer, "prepare_splats", "rasterizer.prepare", prepared),
            (trainer, "rasterize_forward", "rasterizer.forward", None),
            (trainer, "rasterize_backward", "rasterizer.backward", None),
            (rasterizer, "_chain_to_parameters", "rasterizer.chain", None),
            (trainer, "photometric_loss", "losses.photometric", None),
            (trainer, "depth_loss", "losses.other", None),
            (trainer, "normal_loss", "losses.other", None),
            (trainer, "track_loss", "losses.other", None),
            (trainer, "flow_loss", "losses.other", None),
            (trainer, "reg_loss", "losses.other", None),
            (trainer, "adam_step", "trainer.adam", stepped),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (evaluation, "prepare_splats", "rasterizer.prepare", prepared),
            (evaluation, "rasterize_forward", "rasterizer.forward", None),
        ]
        self.tracing = True
        try:
            with _patched([(mod, attr, self._span(name, getattr(mod, attr), after))
                           for mod, attr, name, after in targets]):
                yield
        finally:
            self.tracing = False

    # -- derived values -----------------------------------------------------

    def step_ms(self):
        return [d for fit in self.fits for d in _step_durations_ms(fit)]

    def step_sums(self):
        """(step time from stamps, summed self time of its spans) per traced step, ms."""
        return [pair for fit in self.fits
                for pair in zip(_step_durations_ms(fit), fit["self_sums"])]

    def layer_metrics(self):
        out = {}
        for name in SPAN_NAMES:
            times = self.self_ms.get(name, [])
            out[f"{name}_calls"] = len(times)
            out[f"{name}_ms"] = statistics.median(times) if times else 0.0
            out[f"{name}_total_ms"] = float(sum(times))
        hits = tiles = pairs = peak = splats = 0
        for mean2d, radii, width, height in self.batches:
            per_tile, n_pairs = tile_counts(mean2d, radii, width, height)
            splats += len(radii)
            hits += sum(per_tile)
            tiles += len(per_tile)
            pairs += n_pairs
            peak = max([peak] + per_tile)
        frames = len(self.batches)
        out["rasterizer.splats"] = splats / frames if frames else 0.0
        out["rasterizer.splats_per_tile_mean"] = hits / tiles if tiles else 0.0
        out["rasterizer.splats_per_tile_max"] = peak
        out["rasterizer.splat_pixel_pairs"] = pairs / frames if frames else 0.0
        out["trainer.adam_skipped"] = sum(sum(s.skipped.values()) for s in self.adam_states.values())
        for key in ("dynmask.frames_scored", "primitives.converted", "primitives.checkpoint_bytes"):
            out[key] = self.counts[key]
        return out


def _step_durations_ms(fit):
    ends = fit["starts"][1:] + [fit["exit"]]
    return [(e - s) * 1e3 for s, e in zip(fit["starts"], ends)]


def tile_counts(mean2d, radii, width, height):
    """Splats per tile and (splat, pixel) pairs, by the rasterizer's own tile
    loop (``_tile_ranges``) and tile test (``_splats_in_tile``).

    The test reads only ``mean`` and ``radius`` of the depth-ordered view, and
    a count does not depend on the order, so the view here skips the sort and
    keeps only the two arrays (the self-test compares it with ``_OrderedView``).
    """
    view = SimpleNamespace(mean=mean2d, radius=radii)
    per_tile, pairs = [], 0
    for y0, y1, x0, x1 in rasterizer._tile_ranges(width, height):
        n = len(rasterizer._splats_in_tile(view, y0, y1, x0, x1))
        per_tile.append(n)
        pairs += n * (y1 - y0) * (x1 - x0)
    return per_tile, pairs


# ---------------------------------------------------------------------------
# checks


def reference_excess(gset, cam, t, threads):
    """Largest |tiled - rasterize_reference| at frame t as a share of its tolerance.

    The tolerance is criterion 1's 1e-5 on every channel and alpha. Where the
    tiled pass stopped compositing early (transmittance below
    TERMINATE_TRANSMITTANCE), the oracle, which never stops, may add at most
    that transmittance times the largest payload of the channel, so the
    tolerance there grows by that bound. The oracle runs on horizontal strips
    (the batch shifted up and cropped): the same per-pixel computation with a
    fraction of the memory. A value at most 1 passes.
    """
    batch = rasterizer.prepare_splats(gset, cam, t)
    tiled = rasterizer.rasterize_forward(batch, cam, threads=threads)
    planes = np.concatenate([tiled.channel_stack(), tiled.alpha[..., None]], axis=-1)
    payload = np.append(np.max(np.abs(batch.channels), axis=0), 1.0)
    stopped = (1.0 - tiled.alpha) < rasterizer.TERMINATE_TRANSMITTANCE
    tol = REFERENCE_TOL + np.where(stopped[..., None],
                                   rasterizer.TERMINATE_TRANSMITTANCE * payload, 0.0)
    worst = 0.0
    for y0 in range(0, batch.height, REFERENCE_ROWS):
        rows = min(REFERENCE_ROWS, batch.height - y0)
        strip = replace(batch, mean2d=batch.mean2d - np.array([0.0, y0]), height=rows)
        ref = rasterizer.rasterize_reference(strip, cam)
        ref_planes = np.concatenate([ref.channel_stack(), ref.alpha[..., None]], axis=-1)
        err = np.abs(planes[y0:y0 + rows] - ref_planes) / tol[y0:y0 + rows]
        worst = max(worst, float(np.max(err)))
    return worst


def _finite_set(gset):
    return all(np.all(np.isfinite(arr)) for grp in parameter_tree(gset).values()
               for arr in grp.values())


def _min_iou(masks, truth):
    return min(evaluation.mask_iou(m, g) for m, g in zip(masks, truth))


# ---------------------------------------------------------------------------
# workloads


def load_workload(name):
    path = WORKLOAD_DIR / f"{name}.json"
    if not path.is_file():
        known = sorted(p.stem for p in WORKLOAD_DIR.glob("*.json"))
        raise BenchError(f"unknown workload {name!r}; known: {known}")
    return json.loads(path.read_text())


def _spec_and_config(workload, seed):
    bench = workload["bench"]
    spec = synth.SyntheticSceneSpec.from_dict({**workload, "seed": seed})
    config = trainer.TrainConfig.from_dict({**bench["config"], "seed": seed})
    return bench, spec, config


def _loop_s(m):
    return sum(s for _, _, s in m["loops"])


def _run_train(workload, seed, seconds, trace, rec, out_root):
    bench, spec, config = _spec_and_config(workload, seed)
    if config.holdout_every <= 0:
        raise BenchError("training workloads need holdout_every > 0")
    heldout = list(range(0, spec.n_frames, config.holdout_every))
    m = {"setup_s": [], "loops": [], "psnr": None, "iou": None, "iterations": 0,
         "failed_iterations": 0, "outputs": []}
    k = 0
    while k < REPEATS or _loop_s(m) < seconds:
        traced = trace and k % 2 == 0
        out_dir = out_root / f"fit{k}"
        with rec.spans(traced):
            t0 = time.perf_counter()
            ds = synth.generate_synthetic(spec)
            generate_s = time.perf_counter() - t0
            truth = ds.dyn_masks
            if bench["estimate_masks"]:
                ds = replace(ds, dyn_masks=None)
            gset, log = trainer.train(ds, config, out_dir=str(out_dir))
            report = evaluation.evaluate(gset, ds, frames=heldout, threads=config.threads)
        fit = rec.fits[-1]
        m["setup_s"].append(generate_s + fit["starts"][0] - fit["enter"])
        m["loops"].append((traced, len(fit["starts"]), fit["exit"] - fit["starts"][0]))
        m["iterations"] += config.iters_total
        m["failed_iterations"] += sum(
            1 for r in log if r.get("event") == "degenerate_blend"
            or ("total" in r and not np.isfinite(r["total"])))
        m["outputs"].append(tuple((out_dir / f).read_bytes() for f in ("log.jsonl", "final.rigs")))
        m["psnr"] = report["mean_psnr"]
        m["iou"] = _min_iou(rec.masks[-1], truth)
        k += 1
        # untraced render passes over this fit's set, their share of the run so far
        while (len(rec.render_ms) < MIN_RENDERS * min(k, REPEATS) / REPEATS
               or sum(rec.render_ms) < RENDER_SHARE * _loop_s(m) * 1e3):
            evaluation.evaluate(gset, ds, frames=heldout, threads=config.threads)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["checks"] = {
        "reference": reference_excess(gset, ds.cameras[heldout[0]], heldout[0],
                                      config.threads) <= 1.0,
        "finite": _finite_set(gset) and bool(np.isfinite(m["psnr"])),
        "deterministic": all(o == m["outputs"][0] for o in m["outputs"])
        and all(len(d) == 1 for d in rec.render_digests.values()),
    }
    return m


def initial_set(ds, config):
    """The Gaussian set training starts from: statics plus rigids from tracks."""
    statics = trainer.init_static(ds, ds.dyn_masks, config.n_static_init,
                                  config.init_frames, config.seed)
    rigids, bases = trainer.init_rigid_from_tracks(
        ds.tracks, ds.depths, ds.cameras, ds.dyn_masks, config.n_bases,
        config.seed, images=ds.images)
    return GaussianSet(statics, rigids, TransientGaussians.empty(), bases,
                       config.gate_sharpness)


def _run_render(workload, seed, seconds, trace, rec):
    _, spec, config = _spec_and_config(workload, seed)
    m = {"setup_s": [], "loops": [], "iterations": 0, "failed_iterations": 0}
    with rec.spans(trace):
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            ds = synth.generate_synthetic(spec)
            gset = initial_set(ds, config)
            m["setup_s"].append(time.perf_counter() - t0)
    k = 0
    while _loop_s(m) < seconds or len(rec.render_ms) < MIN_RENDERS:
        traced = trace and k % 2 == 0
        with rec.spans(traced):
            t0 = time.perf_counter()
            report = evaluation.evaluate(gset, ds, threads=config.threads)
            m["loops"].append((traced, ds.n_frames, time.perf_counter() - t0))
        k += 1
    m["psnr"] = report["mean_psnr"]
    m["iou"] = 1.0   # set-up uses the ground-truth masks as they are
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["checks"] = {
        "reference": reference_excess(gset, ds.cameras[0], 0, config.threads) <= 1.0,
        "finite": _finite_set(gset) and bool(np.isfinite(m["psnr"])),
        "deterministic": all(len(d) == 1 for d in rec.render_digests.values()),
    }
    return m


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def _rate(loops):
    units = sum(n for _, n, _ in loops)
    return units / sum(s for _, _, s in loops)


def run(workload, seed, seconds, trace):
    """Run one workload; returns (metrics line, details) as dicts.

    ``metrics`` holds every end-to-end metric (``trace`` false) or every
    per-layer metric (``trace`` true), unitless; ``main`` adds the units
    from BENCHMARK.json.
    """
    rec = Recorder()
    out_root = RUN_DIR / f"{os.getpid()}"
    try:
        with rec.stamps():
            if workload["bench"]["mode"] == "train":
                m = _run_train(workload, seed, seconds, trace, rec, out_root)
                steps = rec.step_ms()
            else:
                m = _run_render(workload, seed, seconds, trace, rec)
                steps = rec.render_ms
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()

    checks_failed = sum(not ok for ok in m["checks"].values())
    attempted = m["iterations"] + len(rec.render_ms) + len(m["checks"])
    failed = m["failed_iterations"] + rec.nonfinite_renders + checks_failed
    if trace:
        metrics = rec.layer_metrics()
        traced = [lp for lp in m["loops"] if lp[0]]
        plain = [lp for lp in m["loops"] if not lp[0]]
        metrics["trace.overhead_pct"] = (
            (_rate(plain) / _rate(traced) - 1.0) * 100.0 if plain and traced else 0.0)
    else:
        metrics = {
            "setup_s": statistics.median(m["setup_s"]),
            "train_iters_per_s": _rate(m["loops"]),
            "step_ms_p50": statistics.median(steps),
            "step_ms_p90": _p90(steps),
            "render_ms_p50": statistics.median(rec.render_ms),
            "render_ms_p90": _p90(rec.render_ms),
            "psnr_db": m["psnr"],
            "dyn_mask_iou_min": m["iou"],
            "peak_rss_mb": m["peak_rss_mb"],
            "completed_frac": 1.0 - failed / attempted,
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {"checks": m["checks"],
               "samples": {"setups": len(m["setup_s"]), "steps": len(steps),
                           "renders": len(rec.render_ms), "loops": len(m["loops"])},
               "step_sums": rec.step_sums()}
    return result, details


# ---------------------------------------------------------------------------
# provenance


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30, check=False)
    return proc.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dysplat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def stamp():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workload = load_workload(args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    result, details = run(workload, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    details.pop("step_sums")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "stamp": stamp(), **details}, sort_keys=True))
    print(json.dumps(result))
    return 0
