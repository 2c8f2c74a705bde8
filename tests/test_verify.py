import numpy as np
import pytest

from mobilevig import svga, verify
from mobilevig.grad_check import random_block_weights
from mobilevig.svga import (
    build_fixed_offsets,
    gather_aggregate,
    mrconv_aggregate,
    svga_block_forward,
)
from mobilevig.tensor_core import roll_2d


def _per_shift_counterexample(seed, weight_seeds):
    """The suite's check one shift at a time, with batch-1 forwards: the
    first failing shift's (detail, counterexample), or None."""
    c = verify.EQUIVARIANCE_CHANNELS
    for h, w in verify.EQUIVARIANCE_GRIDS:
        for s in range(weight_seeds):
            rng = np.random.default_rng([seed, h, w, s])
            weights = random_block_weights(c, rng, dtype=np.float32)
            x = rng.standard_normal((1, c, h, w)).astype(np.float32)
            base = verify.svga_block_forward(x, weights, verify.EQUIVARIANCE_K)
            for d in range(h):
                for e in range(w):
                    lhs = verify.svga_block_forward(roll_2d(x, d, e), weights,
                                                    verify.EQUIVARIANCE_K)
                    rhs = roll_2d(base, d, e)
                    if not np.array_equal(lhs, rhs):
                        where = np.argwhere(lhs != rhs)
                        idx = tuple(int(v) for v in where[0])
                        ce = {"h": h, "w": w, "c": c, "weight_seed": s,
                              "shift": [d, e], "seed": seed, "index": idx,
                              "lhs": float(lhs[idx]), "rhs": float(rhs[idx]),
                              "mismatches": int(where.shape[0])}
                        return f"shift ({d},{e}) broke equivariance on {h}x{w}", ce
    return None


def test_equivariance_suite_reports_the_first_failing_shift(monkeypatch):
    def pinned_pixel(x, weights, k):
        # output pixel (0, 0, 0) also reads input pixel (1, 2, 3): not equivariant
        out = svga_block_forward(x, weights, k)
        out[:, 0, 0, 0] += np.float32(1e-3) * x[:, 1, 2, 3]
        return out

    monkeypatch.setattr(verify, "svga_block_forward", pinned_pixel)
    r = verify.run_equivariance_suite(seed=0, weight_seeds=2)
    detail, ce = _per_shift_counterexample(seed=0, weight_seeds=2)
    assert not r.ok
    assert (r.detail, r.counterexample) == (detail, ce)
    assert ce["shift"] == [0, 1] and (ce["h"], ce["w"], ce["weight_seed"]) == (8, 8, 0)
    assert ce["mismatches"] == 2


def test_equivariance_suite_fails_on_batch_position_dependence(monkeypatch):
    def last_image_off(x, weights, k):
        out = svga_block_forward(x, weights, k)
        if out.shape[0] > 1:
            out[-1] += np.float32(1e-3)
        return out

    monkeypatch.setattr(verify, "svga_block_forward", last_image_off)
    r = verify.run_equivariance_suite(seed=0, weight_seeds=2)
    assert not r.ok
    assert r.counterexample["shift"] == [7, 7] and r.counterexample["h"] == 8


def test_all_rolls_is_every_shift_in_row_major_order():
    x = np.random.default_rng(0).standard_normal((1, 3, 5, 7)).astype(np.float32)
    want = np.concatenate([roll_2d(x, d, e) for d in range(5) for e in range(7)])
    got = verify._all_rolls(x)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def _short_window(x, axis, k, bufs):
    # the min over shifts m*k for m < M - 1 only, M = ceil(L / k)
    out = bufs[0]
    out[...] = x
    for m in range(1, -(-x.shape[axis] // k) - 1):
        np.minimum(out, np.roll(x, m * k, axis=axis), out=out)
    return out


def test_oracle_suite_catches_a_window_one_shift_short(monkeypatch):
    monkeypatch.setattr(svga, "_window_min", _short_window)
    r = verify.run_oracle_suite(seed=0)
    assert not r.ok
    ce = r.counterexample
    assert set(ce) == {"h", "w", "k", "c", "seed", "index", "lhs", "rhs", "mismatches"}
    assert (ce["h"], ce["w"], ce["k"], ce["c"], ce["seed"]) == (1, 2, 1, 1, 0)
    assert r.detail == "mismatch at h=1 w=2 k=1 c=1"


def test_oracle_counterexample_reproduces_from_its_keys(monkeypatch):
    monkeypatch.setattr(svga, "_window_min", _short_window)
    ce = verify.run_oracle_suite(seed=0).counterexample
    h, w, k, c = ce["h"], ce["w"], ce["k"], ce["c"]
    rng = np.random.default_rng([ce["seed"], h, w, k, c])
    x = rng.standard_normal((verify.ORACLE_IMAGES, c, h, w)).astype(np.float32)
    lhs = mrconv_aggregate(x, k)
    rhs = gather_aggregate(x, build_fixed_offsets(h, w, k))
    idx = ce["index"]
    assert (ce["lhs"], ce["rhs"]) == (float(lhs[idx]), float(rhs[idx]))
    assert ce["lhs"] != ce["rhs"]
    assert ce["mismatches"] == int(np.count_nonzero(lhs.view(np.uint32) != rhs.view(np.uint32)))


def test_oracle_suite_with_one_image_sees_the_first_of_a_larger_draw(monkeypatch):
    first = {}

    def recording_aggregate(x, k):
        first.setdefault(len(x), []).append(x[0].copy())
        return mrconv_aggregate(x, k)

    monkeypatch.setattr(verify, "mrconv_aggregate", recording_aggregate)
    assert verify.run_oracle_suite(seed=0, seeds_per_case=1).ok
    assert verify.run_oracle_suite(seed=0).ok
    one, many = first[1], first[verify.ORACLE_IMAGES]
    assert len(one) == len(many) == 432
    assert all(np.array_equal(a, b) for a, b in zip(one, many))


@pytest.mark.wallclock
def test_suites_give_the_same_report_twice():
    # wall-clock readings go to measured, so two runs of the same tree and
    # seed agree on everything else
    def report():
        return [(r.name, r.ok, r.detail, r.counterexample)
                for r in verify.run_suites(list(verify.SUITES), seed=0)]

    assert report() == report()
