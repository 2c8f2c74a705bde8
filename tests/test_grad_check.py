import numpy as np
import pytest

import mobilevig.grad_check as gc
from mobilevig import verify
from mobilevig.grad_check import GradCheckError, grad_check_svga, random_block_weights
from mobilevig.svga import block_convs, svga_block_forward
from mobilevig.verify import GRAD_LINEAR_TOL, GRAD_TOL


def test_full_block_gradients_match_finite_differences():
    err = grad_check_svga((1, 4, 4, 4), k=2, seed=0)
    assert err < 1e-4, f"max relative error {err}"


def test_small_irregular_shape():
    err = grad_check_svga((1, 2, 3, 5), k=2, seed=1)
    assert err < 1e-4, f"max relative error {err}"


def test_linear_subnetwork_is_near_exact():
    err = grad_check_svga((1, 4, 4, 4), k=2, seed=0, identity_act=True)
    assert err < 1e-8, f"max relative error {err}"


def test_linear_subnetwork_seed_6_within_suite_tolerance():
    # a float64 difference quotient reaches 7e-8 here from rounding alone
    err = grad_check_svga((1, 4, 4, 4), k=2, seed=6, identity_act=True)
    assert err < GRAD_LINEAR_TOL, f"max relative error {err}"


def test_linear_subnetwork_seed_11_within_suite_tolerance():
    # its worst entry has a gradient of 1.5e-5, so small that a longdouble
    # difference quotient reaches 1.5e-8 relative from rounding alone
    err = grad_check_svga((1, 4, 4, 4), k=2, seed=11, identity_act=True)
    assert err < GRAD_LINEAR_TOL, f"max relative error {err}"


def test_batch_of_two_gradients_match_finite_differences():
    # x owns two images here, so its exact operand spans the batch
    err = grad_check_svga((2, 2, 3, 3), k=2, seed=0)
    assert err < GRAD_TOL, f"max relative error {err}"


def test_batch_of_two_linear_subnetwork_is_near_exact():
    err = grad_check_svga((2, 2, 3, 3), k=2, seed=0, identity_act=True)
    assert err < GRAD_LINEAR_TOL, f"max relative error {err}"


def _exact_loss(x, w, k):
    # the identity-activation loss from freshly converted operands
    return gc._exact_block_sum([gc._exact(x)] + [gc._exact_operands(p) for p in w], k)


def test_exact_identity_loss_matches_float_forward():
    rng = np.random.default_rng(5)
    w = random_block_weights(4, rng)
    x = rng.normal(size=(1, 4, 5, 3))
    z, _ = gc._forward_tape(x, w, 2, identity_act=True)
    exact = _exact_loss(x, w, 2)
    assert float(exact) == pytest.approx(float(np.sum(z)), rel=1e-12)
    # exact: a change far below float64 resolution of the loss still shows
    x[0, 1, 2, 0] += 2.0 ** -40
    assert _exact_loss(x, w, 2) != exact


def test_random_block_weights_follow_block_convs():
    w = random_block_weights(6, np.random.default_rng(0))
    assert isinstance(w, tuple)
    assert [p.spec for p in w] == [spec for _, spec in block_convs(6, 4)]


def test_element_budget_enforced():
    with pytest.raises(ValueError):
        grad_check_svga((2, 16, 16, 16), k=2, seed=0)


def test_gradients_block_diagonal_in_batch():
    # perturbing batch element 0 never moves outputs of batch element 1
    rng = np.random.default_rng(3)
    w = random_block_weights(3, rng)
    x = rng.normal(size=(2, 3, 4, 4))
    base = svga_block_forward(x, w, 2)
    bumped = x.copy()
    bumped[0, 1, 2, 3] += 0.25
    out = svga_block_forward(bumped, w, 2)
    assert np.array_equal(out[1], base[1])
    assert not np.array_equal(out[0], base[0])


def test_nonfinite_gradient_names_parameter(monkeypatch):
    def poisoned(c, rng, ffn_ratio=4, dtype=np.float64):
        w = random_block_weights(c, rng, ffn_ratio, dtype)
        w[0].weight[0, 0, 0, 0] = np.nan  # grapher.w_in
        return w

    monkeypatch.setattr(gc, "random_block_weights", poisoned)
    with pytest.raises(GradCheckError, match="non-finite gradient for"):
        grad_check_svga((1, 2, 3, 3), k=2, seed=0, identity_act=True)


def test_nan_finite_difference_gives_a_nan_error(monkeypatch):
    calls = []

    def nan_after_first_call(x, w, k):
        # the first call is the tape check; every loss evaluation gives NaN
        out = svga_block_forward(x, w, k)
        if calls:
            out[0, 0, 0, 0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(gc, "svga_block_forward", nan_after_first_call)
    assert np.isnan(grad_check_svga((1, 2, 3, 3), k=2, seed=0))


def test_grad_suite_fails_on_a_nan_error(monkeypatch):
    monkeypatch.setattr(verify, "grad_check_svga", lambda *a, **kw: float("nan"))
    r = verify.run_grad_suite(seed=0)
    assert not r.ok
    assert np.isnan(r.counterexample["error"])
