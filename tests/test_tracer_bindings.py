"""The benchmark's tracer binds package functions by name; a renamed or
removed function must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from mobilevig import arch, tensor_core


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve_and_count_a_forward():
    tracing = _load_tracing()
    cfg = arch.get_variant("Ti")
    weights = arch.build_model(cfg, 0)
    x = np.random.default_rng(0).standard_normal((1, 3, 64, 64)).astype(np.float32)
    conv2d = tensor_core.conv2d
    tracer = tracing.Tracer(cfg.stage_channels, cfg.stage_depths[3])
    with tracer.active(0):
        arch.model_forward(x, weights, cfg)
    assert tensor_core.conv2d is conv2d
    spans = tracer.per_op([0])[0]
    assert {"arch.stem", "arch.stage1", "arch.stage2", "arch.stage3", "arch.stage4",
            "arch.downsample", "arch.head"} <= set(spans)
    macs = sum(row["macs"] for name, row in spans.items() if name.startswith("tensor_core."))
    assert macs == arch.count_macs(cfg, 64, 64)
    for module, attr, _, _ in tracer._table():
        getattr(module, attr)
