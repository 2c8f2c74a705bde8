"""Test-only builders shared by several test modules."""

import os
from pathlib import Path

import numpy as np

import mobilevig
from mobilevig.svga import FixedGraph
from mobilevig.tensor_core import BN_EPS, ConvBn, ConvSpec


def identity_conv_bn(spec: ConvSpec, weight, bias=None, dtype=np.float32) -> ConvBn:
    """ConvBn whose batch norm is the identity for inputs of dtype: gamma is
    sqrt(1 + BN_EPS) rounded as conv_bn rounds its denominator, so the
    folded scale is a number divided by itself, exactly 1."""
    c = spec.out_channels
    one = np.ones(c, dtype=dtype)
    zero = np.zeros(c, dtype=dtype)
    if bias is None:
        bias = np.zeros(c, dtype=dtype)
    return ConvBn(spec, np.asarray(weight, dtype=dtype), np.asarray(bias, dtype=dtype),
                  gamma=np.sqrt(one + BN_EPS), beta=zero, mean=zero, var=one)


def neighbors_per_pixel(graph: FixedGraph) -> int:
    return len(graph.row_offsets) + len(graph.col_offsets)


def child_env(**overrides: str) -> dict:
    """This process's environment, with the directory mobilevig was
    imported from put first on PYTHONPATH so that a Python child process
    imports the same package, and with overrides applied."""
    env = dict(os.environ)
    src = str(Path(mobilevig.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env
