"""The failing branch of input checks that no other test drives: each case
calls a function with input just past the check's bound and matches the
ValueError's whole message."""

import re

import numpy as np
import pytest

from mobilevig.arch import downsample_forward
from mobilevig.knn import adjacency_from_fixed_graph, knn_aggregate, knn_graph
from mobilevig.svga import build_fixed_offsets, gather_aggregate, mrconv_aggregate
from mobilevig.tensor_core import ConvSpec, batchnorm_infer, conv2d, linear, roll_2d


def _zeros(*shape):
    return np.zeros(shape, np.float32)


_CASES = {
    "convspec-channels": (lambda: ConvSpec(0, 2, (1, 1)), "channel counts must be >= 1"),
    "convspec-kernel": (lambda: ConvSpec(1, 1, (1, 0)), "kernel dims must be >= 1"),
    "convspec-stride": (lambda: ConvSpec(1, 1, (1, 1), stride=0), "stride must be >= 1"),
    "convspec-padding": (lambda: ConvSpec(1, 1, (1, 1), padding=-1), "padding must be >= 0"),
    "convspec-groups": (lambda: ConvSpec(1, 1, (1, 1), groups=0), "groups must be >= 1"),
    "convspec-out-groups": (lambda: ConvSpec(2, 3, (1, 1), groups=2),
                            "out_channels 3 not divisible by groups 2"),
    "out-size": (lambda: ConvSpec(1, 1, (3, 3), padding=0).out_size(2, 3),
                 "kernel (3, 3) does not fit 2x3 input with padding 0"),
    "nchw-rank": (lambda: roll_2d(_zeros(2, 3, 4), 1, 1), "x must be 4-D (n, c, h, w), got 3-D"),
    "nchw-empty": (lambda: roll_2d(_zeros(1, 0, 2, 2), 1, 1), "x has a zero-sized dimension"),
    "conv2d-bias": (lambda: conv2d(_zeros(1, 2, 3, 3), ConvSpec(2, 4, (1, 1)), _zeros(4, 2, 1, 1),
                                   _zeros(3)),
                    "bias shape (3,) != (4,)"),
    "bn-shape": (lambda: batchnorm_infer(_zeros(1, 2, 2, 2), _zeros(2), _zeros(3), _zeros(2),
                                         _zeros(2)),
                 "beta must have shape (2,)"),
    "linear-rank": (lambda: linear(_zeros(2, 3, 1), _zeros(4, 3), _zeros(4)),
                    "x must be 2-D, got 3-D"),
    "downsample": (lambda: downsample_forward(_zeros(1, 3, 4, 1), ()),
                   "downsample needs spatial dims >= 2"),
    "fixed-offsets-grid": (lambda: build_fixed_offsets(3, 0, 1), "grid dims must be >= 1"),
    "mrconv-k": (lambda: mrconv_aggregate(_zeros(1, 2, 4, 4), 0),
                 "connection stride k must be >= 1, got 0"),
    # the X_j kernels check the rank: a 5-D array would be aggregated over
    # the wrong axes
    "mrconv-rank-5d": (lambda: mrconv_aggregate(_zeros(1, 1, 4, 6, 6), 2),
                       "x must be 4-D (n, c, h, w), got 5-D"),
    "mrconv-rank-3d": (lambda: mrconv_aggregate(_zeros(2, 4, 4), 2),
                       "x must be 4-D (n, c, h, w), got 3-D"),
    "mrconv-empty": (lambda: mrconv_aggregate(_zeros(1, 0, 4, 4), 2),
                     "x has a zero-sized dimension"),
    "gather-rank": (lambda: gather_aggregate(_zeros(2, 4, 4), build_fixed_offsets(4, 4, 2)),
                    "x must be 4-D (n, c, h, w), got 3-D"),
    "gather-empty": (lambda: gather_aggregate(_zeros(0, 2, 4, 4), build_fixed_offsets(4, 4, 2)),
                     "x has a zero-sized dimension"),
    "knn-aggregate-rank": (lambda: knn_aggregate(
        _zeros(3, 4, 4), adjacency_from_fixed_graph(build_fixed_offsets(4, 4, 2), 1)),
        "x must be 4-D (n, c, h, w), got 3-D"),
    "knn-aggregate-empty": (lambda: knn_aggregate(
        _zeros(1, 0, 4, 4), adjacency_from_fixed_graph(build_fixed_offsets(4, 4, 2), 1)),
        "x has a zero-sized dimension"),
    "knn-graph-rank": (lambda: knn_graph(_zeros(2, 4, 4), 2), "x must be (n, c, h, w)"),
    "knn-aggregate-batch": (lambda: knn_aggregate(
        _zeros(2, 3, 4, 4), adjacency_from_fixed_graph(build_fixed_offsets(4, 4, 2), 1)),
        "adjacency batch 1 != input batch 2"),
}


@pytest.mark.parametrize("call, message", _CASES.values(), ids=_CASES.keys())
def test_bad_input_raises_the_checks_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
