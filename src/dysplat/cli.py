"""Command-line interface.

Subcommands: synth, masks, train, render, eval, hist, sceneflow.
Exit codes: 0 success, 2 validation error (bad input/options), 1 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset import load_dataset, save_dataset, write_ppm, write_raw
from .dynmask import DEFAULT_EPS_TEMP
from .errors import DysplatError, ValidationError
from .estimators import MotionMaskEstimator
from .evaluation import evaluate, render_view
from .geometry import CameraExtrinsics, CameraFrame, CameraIntrinsics
from .primitives import load_checkpoint
from .synth import SyntheticSceneSpec, generate_synthetic
from .trainer import (TrainConfig, duration_histogram, histogram_image, scene_flow_pairs,
                      train)
from .validation import read_json


def _cmd_synth(args):
    spec = SyntheticSceneSpec.from_json(args.spec)
    ds = generate_synthetic(spec)
    save_dataset(ds, args.out)
    print(json.dumps({"out": str(args.out), "frames": ds.n_frames,
                      "size": list(ds.image_size),
                      "dynamic_ids": ds.gt_dynamic_ids}))
    return 0


def _cmd_masks(args):
    ds = load_dataset(args.dataset)
    est = MotionMaskEstimator(eps_temp=args.eps_temp, eps_dyn=args.eps_dyn)
    masks = est.fit_predict(ds)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for t, m in enumerate(masks):
        write_raw(out / f"{t:05d}.u8", m.astype(np.uint8), "uint8")
    table = est.table_
    report = {
        "object_scores": {str(k): v for k, v in table.object_scores.items()},
        "motion_frames": {str(k): v for k, v in table.motion_frames.items()},
        "eps_temp": table.eps_temp,
        "eps_dyn": table.eps_dyn,
        "dynamic_ids": table.dynamic_ids(),
    }
    (out / "scores.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    print(json.dumps(report["object_scores"]))
    return 0


def _cmd_train(args):
    config = TrainConfig.from_dict(read_json(args.config, "config") if args.config else {})
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    ds = load_dataset(args.dataset)
    init_set = None
    if args.init_ckpt:
        init_set = load_checkpoint(args.init_ckpt)
    train(ds, config, out_dir=args.out, init_set=init_set)
    print(json.dumps({"out": str(args.out)}))
    return 0


def _default_camera():
    return CameraFrame(
        CameraIntrinsics(fx=70.0, fy=70.0, cx=32.0, cy=32.0, width=64, height=64),
        CameraExtrinsics(np.eye(3), np.zeros(3)))


def _cmd_render(args):
    gset = load_checkpoint(args.ckpt)
    if args.cam:
        cam = CameraFrame.from_dict(read_json(args.cam, "camera"))
    elif args.dataset:
        ds = load_dataset(args.dataset)
        if not (0 <= args.frame < ds.n_frames):
            raise ValidationError(f"frame {args.frame} outside dataset range")
        cam = ds.cameras[args.frame]
    else:
        cam = _default_camera()
    out = render_view(gset, cam, args.frame)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_ppm(out_dir / "color.ppm", out.color)
    planes = {"alpha": out.alpha, "depth": out.depth, "normal": out.normal,
              "dyn_mask": out.dyn_mask, "v_fwd": out.v_fwd, "v_bwd": out.v_bwd,
              "corr": out.corr, "transmittance": out.transmittance}
    for name, plane in planes.items():
        write_raw(out_dir / f"{name}.f32", plane, "float32")
    print(json.dumps({"out": str(out_dir), "frame": args.frame}))
    return 0


def _cmd_eval(args):
    gset = load_checkpoint(args.ckpt)
    ds = load_dataset(args.dataset)
    report = evaluate(gset, ds, frames=args.frames)
    for entry in report["per_frame"]:
        print(json.dumps(entry, sort_keys=True))
    summary = {k: v for k, v in report.items() if k != "per_frame"}
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_hist(args):
    gset = load_checkpoint(args.ckpt)
    counts, edges = duration_histogram(gset, args.bins)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {"counts": [int(c) for c in counts],
               "edges": [float(e) for e in edges]}
    out.write_text(json.dumps(payload, sort_keys=True))
    write_ppm(out.with_suffix(".ppm"), histogram_image(counts))
    print(json.dumps(payload))
    return 0


def _cmd_sceneflow(args):
    ds = load_dataset(args.dataset)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    T = ds.n_frames
    v = np.zeros((2, T) + ds.image_size + (3,))  # toward t + 1, from t - 1; 0 at the ends
    for t, _, pairs in scene_flow_pairs(ds):
        for s, _, _, v_ts, _ in pairs:
            v[int(s < t), t] = v_ts
    for t in range(T):
        write_raw(out / f"v_fwd_{t:05d}.f32", v[0, t], "float32")
        write_raw(out / f"v_bwd_{t:05d}.f32", v[1, t], "float32")
    print(json.dumps({"out": str(out), "frames": T}))
    return 0


def _eps_dyn(text):
    return None if text == "auto" else float(text)


def _frame_list(text):
    return [int(v) for v in text.split(",")]


def build_parser():
    parser = argparse.ArgumentParser(prog="dysplat",
                                     description="Dynamic-scene Gaussian splatting engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("masks", help="object-wise dynamic masks")
    p.add_argument("--dataset", required=True)
    p.add_argument("--eps-temp", type=float, default=DEFAULT_EPS_TEMP,
                   help="per-frame motion threshold, in pixels of flow residual")
    p.add_argument("--eps-dyn", default="auto", type=_eps_dyn,
                   help="dynamic-score threshold, or 'auto' for max score / 4")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_masks)

    p = sub.add_parser("train", help="optimize a Gaussian set on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--init-ckpt", default=None,
                   help="start from this checkpoint; resume is not exact: Adam moments "
                        "start from zero and parameters are rounded to float32")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("render", help="render one frame from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--frame", type=int, required=True)
    p.add_argument("--cam", default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("eval", help="PSNR/SSIM (and IoU) against a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--frames", default=None, type=_frame_list,
                   help="comma-separated frame list")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("hist", help="temporal-duration histogram")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_hist)

    p = sub.add_parser("sceneflow", help="lift dataset flow+depth to 3D scene flow")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sceneflow)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValidationError, OSError) as exc:  # an unusable --out path is bad input too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DysplatError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
