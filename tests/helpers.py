"""Test-only builders shared by several test modules."""

import os
from pathlib import Path

import numpy as np

import mobilevig
from mobilevig.svga import FixedGraph
from mobilevig.tensor_core import ConvBn, ConvSpec


def identity_conv_bn(spec: ConvSpec, weight, bias=None, dtype=np.float32) -> ConvBn:
    """ConvBn whose batch norm is the identity (eps folded to zero)."""
    c = spec.out_channels
    one = np.ones(c, dtype=dtype)
    zero = np.zeros(c, dtype=dtype)
    if bias is None:
        bias = np.zeros(c, dtype=dtype)
    return ConvBn(spec, np.asarray(weight, dtype=dtype), np.asarray(bias, dtype=dtype),
                  gamma=one, beta=zero, mean=zero, var=one, eps=0.0)


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
