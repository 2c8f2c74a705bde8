"""README's Variants table and the sentence under it, checked against the
code, so that the documented figures cannot drift from the model."""

import re
from pathlib import Path

import pytest

from mobilevig.arch import (
    EXPANSION,
    HEAD_HIDDEN,
    NUM_CLASSES,
    VARIANTS,
    build_model,
    count_macs,
    count_params,
)
from mobilevig.svga import FFN_RATIO
from mobilevig.tensor_core import BN_EPS

README = Path(__file__).resolve().parents[1] / "README.md"


def _variants_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Variants\n", 1)[1].split("\n## ", 1)[0]


def _table_rows() -> dict[str, list[str]]:
    rows = {}
    for line in _variants_section().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in VARIANTS:
            rows[cells[0]] = cells[1:]
    return rows


def _ints(cell: str) -> tuple[int, ...]:
    return tuple(int(v) for v in cell.split(","))


def test_table_lists_every_variant():
    assert list(_table_rows()) == list(VARIANTS)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_table_row_matches_the_code(name):
    cfg = VARIANTS[name]
    depths, channels, params, macs = _table_rows()[name]
    assert _ints(depths) == cfg.stage_depths
    assert _ints(channels) == cfg.stage_channels
    assert params == f"{count_params(build_model(cfg, skeleton=True)) / 1e6:.2f} M"
    assert macs == f"{count_macs(cfg, 224, 224) / 1e9:.2f} G"


def test_shared_settings_sentence_matches_the_code():
    text = " ".join(_variants_section().split())
    documented = {
        pattern: re.search(pattern, text)
        for pattern in (r"stride K=(\d+)", r"expansion (\d+) \(`arch\.EXPANSION`\)",
                        r"FFN ratio (\d+) \(`svga\.FFN_RATIO`\)",
                        r"(\d+)-wide convolutional head \(`arch\.HEAD_HIDDEN`\)",
                        r"(\d+) classes \(`arch\.NUM_CLASSES`\)",
                        r"`tensor_core\.BN_EPS` = ([0-9.e-]+)")}
    missing = [pattern for pattern, m in documented.items() if m is None]
    assert not missing, missing
    k, expansion, ffn_ratio, head_hidden, num_classes, eps = (
        m.group(1) for m in documented.values())
    assert {cfg.k for cfg in VARIANTS.values()} == {int(k)}
    assert (int(expansion), int(ffn_ratio), int(head_hidden), int(num_classes)) == (
        EXPANSION, FFN_RATIO, HEAD_HIDDEN, NUM_CLASSES)
    assert float(eps) == BN_EPS
