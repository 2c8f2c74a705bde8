"""Self-tests of the benchmark: BENCHMARK.json schema and names, a short
smoke run of each workload, and each output checker shown a wrong output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mobilevig import arch, knn, svga, verify  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
# end-to-end metrics the graph28 report prints beside the JSON line; they
# exist on that workload only, so BENCHMARK.json cannot list them
GRAPH_PARTS = {"svga_agg_p50_rel", "knn_agg_p50_rel"}


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema_and_names():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    cmd = spec["command"]
    assert 1 <= len(cmd) <= 32 and all(isinstance(a, str) and len(a) <= 200 for a in cmd)
    assert not any(a.startswith("/") or ".." in a.split("/") for a in cmd)
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60

    assert 2 <= len(spec["workloads"]) <= 8
    for wl in spec["workloads"]:
        assert set(wl) == {"name", "why"}
        assert len(wl["why"]) <= 200 and "\n" not in wl["why"]
        assert wl["name"] in workloads.WORKLOADS and wl["name"] in run.WORKLOAD_NAMES

    assert 1 <= len(spec["end_to_end"]) <= 16
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]

    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")

    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in spec[key])


def test_layer_map_covers_every_layer_metric():
    spec = load_spec()
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    assert set(layer_map["layers"]) == listed | set(run.GRAD_ONLY)
    assert {w["name"] for w in spec["workloads"]} <= set(layer_map["workloads"])
    e2e = {m["name"] for m in spec["end_to_end"]} | GRAPH_PARTS
    for name, entry in layer_map["layers"].items():
        for metric, workload in entry.get("moves", []):
            assert metric in e2e, name
            assert workload in layer_map["workloads"], name


def test_references_cover_every_workload_and_repeat():
    assert set(reference.REFERENCES) == set(run.WORKLOAD_NAMES)
    assert "mobilevig" not in (BENCH / "reference.py").read_text()
    for fn in set(reference.REFERENCES.values()):
        assert fn() == fn()


def test_relative_divides_each_op_by_the_references_beside_it():
    assert run.relative([4, 9], [1, 3, 6]) == [2.0, 2.0]


def test_setup_s_is_the_median_scaled_setup():
    setups = [(2.0, 0.5), (4.0, 0.5), (0.5, 1.0)]
    assert run.end_to_end([1.0], setups)["setup_s"] == (1.0, "s")


def _run(workload, trace, cwd=ROOT, seconds="0.5"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [
    ("fwd224_b1", 0), ("fwd224_b1", 1), ("graph28", 0), ("graph28", 1),
    ("verify_nograd", 0),
])
def test_smoke_run(workload, trace):
    # two seconds give the traced forward run a few op pairs, enough for a
    # steady median in its span-coverage check
    done = _run(workload, trace, seconds="2" if trace else "0.5")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = load_spec()
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload == "fwd224_b1" and trace == 1:
        assert result["metrics"]["tensor_core.macs"]["value"] == 674_856_320


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = _run("graph28", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- checkers --------------------------------------------------------------

@pytest.fixture(scope="module")
def fwd_ctx(tmp_path_factory):
    return workloads.fwd_setup(1, tmp_path_factory.mktemp("w"))


@pytest.fixture(scope="module")
def graph_ctx(tmp_path_factory):
    return workloads.graph_setup(1, tmp_path_factory.mktemp("w"))


def _failed_ops(wl, ctx, corrupt):
    """Runs one op through the benchmark loop with its output corrupted."""
    bad = dataclasses.replace(wl, op=lambda c: corrupt(wl.op(c)))
    ledger = run.Ledger()
    run.run_untraced(bad, ctx, 1e-9, ledger)
    return ledger


@pytest.mark.parametrize("corrupt", [
    lambda y: np.where(np.arange(y.size).reshape(y.shape) == 3, np.nan, y),
    lambda y: y * np.float32(1.01),
    lambda y: np.nextafter(y, np.float32(np.inf)),
], ids=["nan", "scaled", "one-ulp"])
def test_fwd_checker_counts_wrong_logits(fwd_ctx, corrupt):
    wl = workloads.WORKLOADS["fwd224_b1"]
    assert _failed_ops(wl, fwd_ctx, lambda y: y).failed == 0
    ledger = _failed_ops(wl, fwd_ctx, corrupt)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def _bump_svga(out):
    xj = out.svga_xj.copy()
    xj[0, 5, 3, 4] += 1.0
    return dataclasses.replace(out, svga_xj=xj)


def _self_neighbour(out):
    idx = out.neighbor_idx.copy()
    idx[0, 10, 0] = 10
    return dataclasses.replace(out, neighbor_idx=idx)


def _swap_neighbours(out):
    idx = out.neighbor_idx.copy()
    idx[0, 7, [0, 1]] = idx[0, 7, [1, 0]]
    return dataclasses.replace(out, neighbor_idx=idx)


def _far_neighbour(out):
    idx = out.neighbor_idx.copy()
    used = set(idx[0, 20].tolist()) | {20}
    idx[0, 20, -1] = next(j for j in range(idx.shape[1]) if j not in used)
    return dataclasses.replace(out, neighbor_idx=idx)


def _bump_knn(out):
    xk = out.knn_xj.copy()
    xk[0, 0, 0, 0] += 1.0
    return dataclasses.replace(out, knn_xj=xk)


@pytest.mark.parametrize("corrupt", [_bump_svga, _self_neighbour, _swap_neighbours,
                                     _far_neighbour, _bump_knn])
def test_graph_checker_counts_wrong_outputs(graph_ctx, corrupt):
    wl = workloads.WORKLOADS["graph28"]
    ledger = _failed_ops(wl, graph_ctx, corrupt)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_verify_checker_counts_failed_property():
    wl = workloads.WORKLOADS["verify_nograd"]
    failing = verify.PropertyResult("oracle-equivalence", False, "mismatch", {"h": 1})
    assert wl.check(0, [failing] + [verify.PropertyResult("x", True, "")] * 2)
    assert wl.check(0, [verify.PropertyResult("x", True, "")])  # a suite missing
    assert not wl.check(0, [verify.PropertyResult("x", True, "")] * 3)


def test_knn_checker_handles_ties_and_fallback():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
    flat = x.reshape(3, 36)
    flat[:, 1:4] = flat[:, :1]  # exact distance ties
    idx = knn.knn_graph(x, 5).neighbor_idx
    assert workloads.knn_problems(x, idx, 5) == []
    assert workloads.knn_problems(x, idx, 5, spare=0) == []  # every row falls back
    tie = idx.copy()
    row = int(np.flatnonzero((idx[0] == 1).any(axis=1) & (idx[0] == 2).any(axis=1))[0])
    a, b = np.flatnonzero(idx[0, row] == 1)[0], np.flatnonzero(idx[0, row] == 2)[0]
    tie[0, row, [a, b]] = tie[0, row, [b, a]]  # equal distances, wrong order
    assert workloads.knn_problems(x, tie, 5)


def test_tracer_restores_functions_and_counts_macs(fwd_ctx):
    cfg = workloads.VARIANT
    before = (arch.model_forward_with_stages, svga.mrconv_aggregate,
              arch.svga_block_forward, dict(verify.SUITES))
    tracer = tracing.Tracer(cfg.stage_channels, cfg.stage_depths[3])
    with tracer.active(0):
        traced = workloads.fwd_op(fwd_ctx)
    assert (arch.model_forward_with_stages, svga.mrconv_aggregate,
            arch.svga_block_forward, dict(verify.SUITES)) == before
    assert np.array_equal(traced, workloads.fwd_op(fwd_ctx))
    per_op = tracer.per_op([0])[0]
    macs = sum(row["macs"] for row in per_op.values())
    assert macs == arch.count_macs(cfg, workloads.FWD_SIZE, workloads.FWD_SIZE)
    assert per_op["arch.head"]["calls"] == 1
    assert per_op["arch.stage4"]["calls"] == cfg.stage_depths[3]
    assert all(tracer.self_ns() >= 0)
    expect = arch.count_macs(cfg, workloads.FWD_SIZE, workloads.FWD_SIZE)
    assert run.CountCheck(tracer, expect)(0) == []
    assert run.CountCheck(tracer, expect + 1)(0)  # wrong MAC total
    changed = run.CountCheck(tracer, None)
    changed.first = {"tensor_core.macs": 0}
    assert changed(0)  # counts differ from the first traced op's


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    wl = workloads.WORKLOADS["graph28"]
    monkeypatch.setitem(workloads.WORKLOADS, "graph28",
                        dataclasses.replace(wl, op=lambda c: _bump_svga(wl.op(c))))
    code = run.main(["--workload", "graph28", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1
