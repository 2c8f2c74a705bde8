"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from mobilevig.arch import (NUM_CLASSES, VARIANTS, build_model, count_macs, count_params,
                            model_forward_with_stages)
from mobilevig.bench import aggregation_steps, percentiles_ns, time_interleaved
from mobilevig.verify import (
    run_equivariance_suite,
    run_grad_suite,
    run_knn_suite,
    run_oracle_suite,
)

from helpers import child_env

PARAM_TARGETS = {"Ti": 5.2e6, "S": 7.2e6, "M": 14.0e6, "B": 26.7e6}
MAC_TARGETS = {"Ti": 0.7e9, "S": 1.0e9, "M": 1.5e9, "B": 2.8e9}


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")


def test_criterion_1_oracle_equivalence():
    r = run_oracle_suite(seed=0)
    _report(1, "oracle equivalence (bitwise, 432 cases x 100 images)", r.ok, r.detail)
    assert r.ok, r.counterexample


def test_criterion_2_translation_equivariance():
    r = run_equivariance_suite(seed=0)
    _report(2, "translation equivariance (bitwise, all shifts, 20 seeds)", r.ok, r.detail)
    assert r.ok, r.counterexample


def test_criterion_3_gradient_check():
    r = run_grad_suite(seed=0)
    _report(3, "gradient check (fd step 1e-5, f64, rel err < 1e-4)", r.ok, r.detail)
    assert r.ok, r.counterexample


def test_criterion_4_architecture_counting():
    failures = []
    details = []
    for name, cfg in VARIANTS.items():
        p = count_params(build_model(cfg, skeleton=True))
        m = count_macs(cfg, 224, 224)
        p_ok = abs(p - PARAM_TARGETS[name]) <= 0.10 * PARAM_TARGETS[name]
        m_ok = abs(m - MAC_TARGETS[name]) <= 0.15 * MAC_TARGETS[name]
        details.append(f"{name}: {p / 1e6:.2f}M/{m / 1e9:.2f}G")
        if not p_ok:
            failures.append(f"{name} params {p} vs target {PARAM_TARGETS[name]:.0f} +-10%")
        if not m_ok:
            failures.append(f"{name} macs {m} vs target {MAC_TARGETS[name]:.0f} +-15%")
    _report(4, "param/MAC budgets (+-10% / +-15%)", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_5_shape_schedule():
    failures = []
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 224, 224)).astype(np.float32)
    for name, cfg in VARIANTS.items():
        weights = build_model(cfg, seed=0)
        logits, stages = model_forward_with_stages(x, weights, cfg)
        want_res = (56, 28, 14, 7)
        for i, feat in enumerate(stages):
            if feat.shape != (1, cfg.stage_channels[i], want_res[i], want_res[i]):
                failures.append(f"{name} stage{i + 1} shape {feat.shape}")
        if logits.shape != (1, NUM_CLASSES):
            failures.append(f"{name} logits {logits.shape}")
        if not np.all(np.isfinite(logits)):
            failures.append(f"{name} non-finite logits")
    _report(5, "stage schedule 56/28/14/7 with Table widths", not failures)
    assert not failures, failures


def test_criterion_6_knn_correctness():
    r = run_knn_suite(seed=0)
    _report(6, "knn graph matches exact reference (50 cases, exact)", r.ok, r.detail)
    assert r.ok, r.counterexample


@pytest.mark.wallclock
def test_criterion_7_benchmark_direction():
    lines = []
    ok = True
    # profile's aggregation steps on the 14x14 SVGA stage of Ti (c = 256)
    # and M (c = 400) at 448, svga k = 2 against knn k = 9
    for name, c in (("Ti", 256), ("M", 400)):
        steps = aggregation_steps(VARIANTS[name], 448)
        assert list(steps) == [("svga", 2), ("knn", 9)]
        assert VARIANTS[name].stage_channels[3] == c
        by = {mech: percentiles_ns(times)[0] for (mech, _), times
              in zip(steps, time_interleaved(list(steps.values()), reps=100, warmup=10))}
        lines.append(f"c={c}: svga {by['svga'] / 1e6:.3f}ms vs knn {by['knn'] / 1e6:.3f}ms")
        if not by["svga"] < by["knn"]:
            ok = False
    _report(7, "svga aggregation faster than knn baseline", ok, "; ".join(lines))
    assert ok, lines


def test_criterion_8_determinism_and_persistence(tmp_path):
    def run(extra):
        out = tmp_path / f"{len(list(tmp_path.iterdir()))}.json"
        cmd = [sys.executable, "-m", "mobilevig", "forward", "--variant", "Ti",
               "--size", "96", "--seed", "11", "--json", str(out)] + extra
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return json.loads(out.read_text())["logits"]

    wpath = tmp_path / "ti.mvig"
    first = run(["--save", str(wpath)])
    second = run([])
    loaded = run(["--load", str(wpath)])
    ok = first == second == loaded
    _report(8, "cross-process determinism and save/load round trip", ok)
    assert ok
