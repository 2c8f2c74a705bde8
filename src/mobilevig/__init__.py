"""MobileViG backbones built on sparse vision graph attention (SVGA):
deterministic NCHW kernels, roll-based max-relative graph convolution with
an explicit-gather oracle, the KNN-graph baseline it replaces, full model
assembly with parameter/MAC accounting, and a verification/benchmark CLI.
"""

__version__ = "0.1.0"
