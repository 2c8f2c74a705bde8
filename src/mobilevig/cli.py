"""Command-line surface: model description and counting, property
verification, aggregation benchmarks, and deterministic forward passes with
weight save/load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .arch import (build_model, count_macs, count_params, get_variant, layer_shapes,
                   model_forward)
from .bench import run_bench
from .verify import SUITES, run_suites
from .weights_io import load_into_model, save_weights


def _positive_int(value: str) -> int:
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _size_pair(value: str) -> tuple[int, int]:
    h, w = value.split("x", 1) if "x" in value else (value, value)
    return _positive_int(h), _positive_int(w)


def _seed(value: str) -> int:
    # numpy's seeded generators take non-negative integers only
    try:
        n = int(value)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return n


def _default_seed() -> int:
    value = os.environ.get("MVIG_SEED", "0")
    try:
        return _seed(value)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"MVIG_SEED: {exc}") from None


def _strict_json(doc, indent: int | None = None) -> str:
    """doc as standard JSON: a non-finite float (NaN, inf) is written as
    null, since JSON has no token for it."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {key: finite(x) for key, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(doc), indent=indent, allow_nan=False)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        f.write(_strict_json(doc, indent=2) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mobilevig",
        description="MobileViG models, SVGA verification and benchmarking")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="stage table, parameter and MAC counts")
    p.add_argument("--variant", required=True)
    p.add_argument("--size", type=_positive_int, default=224)
    p.add_argument("--json", dest="json_path")

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all",
                   choices=["all", "oracle", "equivariance", "grad", "knn"])
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--json", dest="json_path")

    p = sub.add_parser("bench", help="time the aggregation mechanisms")
    p.add_argument("--mechanism", default="both", choices=["svga", "knn", "both"])
    p.add_argument("--size", type=_size_pair, default=(14, 14),
                   help="spatial size, N or HxW")
    p.add_argument("--channels", type=_positive_int, default=256)
    p.add_argument("--k", type=_positive_int, default=2,
                   help="connection stride of the fixed graph")
    p.add_argument("--knn-k", type=_positive_int, default=9,
                   help="neighbor count for the KNN baseline")
    p.add_argument("--batch", type=_positive_int, default=1)
    p.add_argument("--reps", type=_positive_int, default=100)
    p.add_argument("--warmup", type=_positive_int, default=10)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--json", dest="json_path")
    p.add_argument("--csv", dest="csv_path")

    p = sub.add_parser("forward", help="run a model forward pass")
    p.add_argument("--variant", required=True)
    p.add_argument("--size", type=_positive_int, default=None,
                   help="input size for a random input (default 224); with --input "
                        "FILE, the size the image must have")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--input", default="random",
                   help="'random' or a path to a binary PPM (P6) image")
    p.add_argument("--save", dest="save_path")
    p.add_argument("--load", dest="load_path")
    p.add_argument("--json", dest="json_path")
    return parser


def _cmd_describe(args) -> int:
    cfg = get_variant(args.variant)
    size = args.size
    params = count_params(build_model(cfg, skeleton=True))
    macs = count_macs(cfg, size, size)
    # each stage runs at the size the stem or the downsample before it gives
    res = [hw for layer, _, hw in layer_shapes(cfg, size, size)
           if layer.kind in ("stem", "downsample")]

    rows = [("stem", f"{res[0][0]}x{res[0][1]}", "conv3x3 s2 x2", cfg.stage_channels[0], 2)]
    for i in range(3):
        rows.append((f"stage{i + 1}", f"{res[i][0]}x{res[i][1]}", "MBConv",
                     cfg.stage_channels[i], cfg.stage_depths[i]))
    rows.append(("stage4", f"{res[3][0]}x{res[3][1]}", f"SVGA k={cfg.k}",
                 cfg.stage_channels[3], cfg.stage_depths[3]))
    rows.append(("head", "1x1", f"conv1x1 {cfg.head_hidden} + pool + fc",
                 cfg.num_classes, 1))

    print(f"MobileViG-{cfg.name} @ {size}x{size}")
    print(f"{'stage':<8} {'output':>8} {'op':<28} {'channels':>8} {'blocks':>6}")
    for name, out, op, ch, blocks in rows:
        print(f"{name:<8} {out:>8} {op:<28} {ch:>8} {blocks:>6}")
    print(f"params: {params:,} ({params / 1e6:.2f} M)")
    print(f"macs @ {size}: {macs:,} ({macs / 1e9:.3f} G)")

    if args.json_path:
        doc = {
            "variant": cfg.name,
            "input_size": size,
            "params": params,
            "macs": macs,
            "stages": [
                {"name": name, "output": out, "op": op,
                 "channels": ch, "blocks": blocks}
                for name, out, op, ch, blocks in rows
            ],
        }
        _write_json(args.json_path, doc)
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    seed = args.seed if args.seed is not None else _default_seed()
    results = []
    for name in names:
        start = time.perf_counter()
        [r] = run_suites([name], seed=seed)
        seconds = time.perf_counter() - start
        results.append((r, seconds))
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail} ({seconds:.2f} s)")
        if not r.ok:
            print(f"counterexample: {_strict_json(r.counterexample)}", file=sys.stderr)
    if args.json_path:
        doc = {"seed": seed, "suites": [
            {"name": r.name, "ok": r.ok, "detail": r.detail, "seconds": seconds,
             "measured": r.measured, "counterexample": r.counterexample}
            for r, seconds in results]}
        _write_json(args.json_path, doc)
    return 0 if all(r.ok for r, _ in results) else 1


def _cmd_bench(args) -> int:
    mechanisms = ["svga", "knn"] if args.mechanism == "both" else [args.mechanism]
    seed = args.seed if args.seed is not None else _default_seed()
    h, w = args.size
    report = run_bench(
        mechanisms, h, w, args.channels, svga_k=args.k, knn_k=args.knn_k,
        batch=args.batch, reps=args.reps, warmup=args.warmup, seed=seed)
    print(f"{'mechanism':<10} {'h':>4} {'w':>4} {'c':>5} {'k':>3} {'batch':>5} "
          f"{'median':>12} {'p10':>12} {'p90':>12}")
    for r in report.records:
        print(f"{r.mechanism:<10} {r.h:>4} {r.w:>4} {r.c:>5} {r.k:>3} {r.batch:>5} "
              f"{r.median_ns / 1e6:>10.3f}ms {r.p10_ns / 1e6:>10.3f}ms "
              f"{r.p90_ns / 1e6:>10.3f}ms")
    if args.json_path:
        _write_json(args.json_path, report.to_dict())
    if args.csv_path:
        report.write_csv(args.csv_path)
    return 0


def load_ppm(path: str):
    """Minimal binary PPM (P6, maxval 255) reader, to a (1, 3, h, w) float32
    tensor scaled to [0, 1]. Any malformed file raises ValueError naming it."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ValueError(f"{path}: truncated PPM header")
        # ASCII digits only (no sign); 20 digits bound any size a file can hold
        # and stay far below int()'s digit limit
        if not token.isdigit() or len(token) > 20:
            raise ValueError(f"{path}: PPM header field {token[:24]!r} is not a "
                             f"decimal number of at most 20 digits")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PPM dims must be >= 1, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * 3  # a Python int: no overflow before the check
    if need > len(data) - pos:
        raise ValueError(f"{path}: truncated pixel data ({w}x{h} needs {need} bytes, "
                         f"{max(len(data) - pos, 0)} left)")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    img = raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float32) / 255.0
    return img[None]


def _cmd_forward(args) -> int:
    cfg = get_variant(args.variant)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.input == "random":
        size = 224 if args.size is None else args.size
        if size % 32:
            raise ValueError(f"input size must be divisible by 32, got {size}")
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal((1, 3, size, size)).astype(np.float32)
    else:
        x = load_ppm(args.input)
        if args.size is not None and x.shape[2:] != (args.size, args.size):
            raise ValueError(f"image is {x.shape[2]}x{x.shape[3]}, "
                             f"--size expects {args.size}x{args.size}")
        if x.shape[2] % 32 or x.shape[3] % 32:
            raise ValueError(
                f"image dims {x.shape[2]}x{x.shape[3]} must be divisible by 32")

    # the input is checked before any weights are built, loaded or saved
    if args.load_path:
        weights = load_into_model(args.load_path, cfg)
    else:
        weights = build_model(cfg, seed)
    if args.save_path:
        save_weights(args.save_path, weights)

    logits = model_forward(x, weights, cfg)
    top = np.argsort(-logits[0], kind="stable")[:5]
    print(f"MobileViG-{cfg.name} forward, input {x.shape[2]}x{x.shape[3]}, seed {seed}")
    for rank, idx in enumerate(top, start=1):
        print(f"  top{rank}: class {int(idx):>4}  logit {float(logits[0, idx]):+.6e}")
    if args.json_path:
        doc = {
            "variant": cfg.name,
            "seed": seed,
            "input": args.input,
            "top5": [[int(i), float(logits[0, i])] for i in top],
            "logits": [[float(v) for v in row] for row in logits],
        }
        _write_json(args.json_path, doc)
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "forward": _cmd_forward,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        # bad input values, files that cannot be read or written, and inputs
        # too large to allocate (numpy's MemoryError names the size)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
