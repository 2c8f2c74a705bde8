import json
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from helpers import child_env
from mobilevig import bench, verify
from mobilevig.arch import build_model, get_variant
from mobilevig.cli import load_ppm, main
from mobilevig.weights_io import save_weights


def test_describe_reports_counts_and_stages(capsys, tmp_path):
    out_json = tmp_path / "ti.json"
    rc = main(["describe", "--variant", "Ti", "--size", "224", "--json", str(out_json)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "5,401,422" in text
    assert "stage4" in text and "SVGA" in text
    doc = json.loads(out_json.read_text())
    assert doc["params"] == 5401422
    assert doc["macs"] == 674856320
    assert doc["stages"][4]["channels"] == 256
    assert doc["stages"][4]["blocks"] == 2


def test_describe_variant_b_stage4(capsys):
    rc = main(["describe", "--variant", "B"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "464" in text and "SVGA" in text


def test_cli_loads_no_scipy():
    # the package needs numpy only; a new process shows what the CLI imports
    source = ("import sys\n"
              "from mobilevig.cli import main\n"
              "rc = main(['describe', '--variant', 'Ti'])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", source], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_describe_rejects_bad_size(capsys):
    rc = main(["describe", "--variant", "Ti", "--size", "225"])
    assert rc == 2
    assert "divisible by 32" in capsys.readouterr().err


def test_describe_rejects_unknown_variant(capsys):
    rc = main(["describe", "--variant", "XL"])
    assert rc == 2
    assert "unknown variant" in capsys.readouterr().err


def test_verify_grad_suite(capsys, tmp_path):
    out_json = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "grad", "--seed", "0", "--json", str(out_json)])
    assert rc == 0
    assert "PASS gradient-check" in capsys.readouterr().out
    doc = json.loads(out_json.read_text())
    assert doc["suites"][0]["ok"] is True


def test_verify_reports_each_suite_wall_time(capsys, tmp_path):
    out_json = tmp_path / "verify.json"
    rc = main(["verify", "--suite", "oracle", "--seed", "0", "--json", str(out_json)])
    assert rc == 0
    assert re.search(r"^PASS oracle-equivalence: .* \(\d+\.\d\d s\)$",
                     capsys.readouterr().out, re.MULTILINE)
    [suite] = json.loads(out_json.read_text())["suites"]
    assert isinstance(suite["seconds"], float) and suite["seconds"] >= 0.0


def test_verify_json_writes_the_suite_keys(capsys, tmp_path):
    out_json = tmp_path / "verify.json"
    for suite in ("knn", "oracle"):
        assert main(["verify", "--suite", suite, "--seed", "0", "--json", str(out_json)]) == 0
        [doc] = json.loads(out_json.read_text())["suites"]
        assert list(doc) == ["name", "ok", "detail", "seconds", "counterexample"]


def test_verify_json_is_the_same_in_two_processes(tmp_path):
    # verify reads no clock but "seconds", so two processes on one tree and
    # seed write equal documents apart from it
    docs = []
    for i in range(2):
        path = tmp_path / f"{i}.json"
        proc = subprocess.run([sys.executable, "-m", "mobilevig", "verify", "--suite", "all",
                               "--seed", "0", "--json", str(path)],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(path.read_text()))
        for suite in docs[-1]["suites"]:
            del suite["seconds"]
    assert docs[0] == docs[1]


def test_verify_knn_passes_with_tracing_already_on():
    # PYTHONTRACEMALLOC=1 starts tracing before the package loads, so the
    # knn suite's peak readings run inside a trace it did not start
    proc = subprocess.run([sys.executable, "-m", "mobilevig", "verify", "--suite", "knn",
                           "--seed", "0"], env=child_env(PYTHONTRACEMALLOC="1"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("PASS knn-graph: ")


def test_profile_rows_follow_the_plan(capsys, tmp_path):
    # the exact parts of the report: no timing bound
    from mobilevig.arch import count_macs, layer_shapes

    cfg = get_variant("Ti")
    out_json = tmp_path / "profile.json"
    assert main(["profile", "--variant", "Ti", "--size", "64", "--batch", "2",
                 "--json", str(out_json)]) in (0, 1)  # 1 only if the host's timings stray
    doc = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert (doc["variant"], doc["size"], doc["batch"], doc["reps"]) == ("Ti", 64, 2, 30)
    shapes = layer_shapes(cfg, 64, 64)
    assert len(doc["layers"]) == len(shapes)
    for row, (layer, macs, hw) in zip(doc["layers"], shapes):
        assert (row["name"], row["kind"]) == (layer.name, layer.kind)
        assert (row["macs"], row["output"]) == (2 * macs, list(hw))
        assert row["p10_ns"] <= row["median_ns"] <= row["p90_ns"]
    assert doc["end_to_end"]["macs"] == 2 * count_macs(cfg, 64, 64)
    assert [(r["mechanism"], r["k"], r["map"]) for r in doc["aggregation"]] == [
        ("svga", 2, [2, 256, 2, 2]), ("knn", 3, [2, 256, 2, 2])]
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()[1:-1]] == [
        *(layer.name for layer, _, _ in shapes), "end-to-end", "svga", "knn"]


def test_profile_at_size_32_gives_the_svga_aggregation_row_only(capsys, tmp_path):
    # Ti's stage-4 map at 32 is one node, which has no neighbour for knn;
    # no timing bound
    from mobilevig.bench import aggregation_steps

    assert list(aggregation_steps(get_variant("Ti"), 32)) == [("svga", 2)]
    out_json = tmp_path / "profile.json"
    assert main(["profile", "--variant", "Ti", "--size", "32", "--reps", "30",
                 "--json", str(out_json)]) in (0, 1)  # 1 only if the host's timings stray
    doc = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert [(r["mechanism"], r["k"], r["map"]) for r in doc["aggregation"]] == [
        ("svga", 2, [1, 256, 1, 1])]


class _TickingClock:
    """perf_counter_ns stand-in: each reading is 1 ms after the last one."""

    def __init__(self):
        self.now = 0

    def perf_counter_ns(self):
        self.now += 1_000_000
        return self.now


@pytest.mark.parametrize("forward_ms, rc", [(17, 0), (15, 1), (21, 1)])
def test_profile_exits_one_when_rows_miss_end_to_end_by_over_ten_percent(
        capsys, monkeypatch, forward_ms, rc):
    # Ti's walk reads the clock after each of its 17 entries and once more
    # after the pool: its rows sum to 18 ms. The end-to-end sample is the
    # forward's own readings plus 1 ms, so 17 readings give a ratio of 1.0,
    # 15 give 1.125 and 21 give 0.818
    clock = _TickingClock()
    monkeypatch.setattr(bench, "time", clock)
    monkeypatch.setattr(bench, "model_forward",
                        lambda *a: [clock.perf_counter_ns() for _ in range(forward_ms)])
    assert main(["profile", "--variant", "Ti", "--size", "64"]) == rc
    captured = capsys.readouterr()
    ratio = f"{18 / (forward_ms + 1):.3f}"
    assert captured.out.splitlines()[-1] == f"rows sum to {ratio} of end-to-end"
    if rc:
        assert captured.err == (f"rows sum to {ratio} of the end-to-end median, "
                                "over 10% away\n")
    else:
        assert captured.err == ""


def test_bench_alternates_the_mechanisms(monkeypatch):
    # profile's four steps take turns through warm-up and samples, so that
    # host load lands on each: the forward, the instrumented walk (its one
    # classifier call marks it), then svga and knn
    calls = []
    monkeypatch.setattr(bench, "model_forward", lambda *a: calls.append("forward"))
    monkeypatch.setattr(bench, "linear", lambda *a: calls.append("walk"))
    monkeypatch.setattr(bench, "mrconv_aggregate", lambda x, k: calls.append("svga"))
    monkeypatch.setattr(bench, "knn_graph", lambda x, k: calls.append("knn"))
    monkeypatch.setattr(bench, "knn_aggregate", lambda x, adj: None)
    report = bench.profile(get_variant("Ti"), 64, reps=30)
    assert calls == ["forward", "walk", "svga", "knn"] * 35
    assert [(r["mechanism"], r["k"]) for r in report["aggregation"]] == [("svga", 2), ("knn", 3)]
    for r in report["aggregation"]:
        assert list(r) == ["mechanism", "k", "map", "median_ns", "p10_ns", "p90_ns"]


def test_bench_env_records_settings_in_effect(capsys, monkeypatch, tmp_path):
    import platform

    from mobilevig.tensor_core import _openblas

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")  # restored after the test
    out_json = tmp_path / "profile.json"
    assert main(["profile", "--variant", "Ti", "--size", "64",
                 "--json", str(out_json)]) in (0, 1)
    env = json.loads(out_json.read_text())["env"]
    assert set(env) == {"blas", "blas_in_force", "thread_vars", "cpu_model",
                        "numpy", "python", "git_commit"}
    # the profiled GEMMs ran at one thread; the report gives the counts
    # this process had before and has again after them
    assert env["blas_in_force"] == [{"library": name, "threads": get()}
                                    for name, get, _ in _openblas()]
    for lib in env["blas_in_force"]:
        assert "openblas" in lib["library"].lower()
    assert env["cpu_model"] is None or isinstance(env["cpu_model"], str)
    commit = env["git_commit"]
    assert commit is None or (len(commit) == 40 and set(commit) <= set("0123456789abcdef"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert env["blas"]["name"] and env["blas"]["version"]
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert env["thread_vars"][var] == "4"
    assert env["numpy"] == np.__version__
    assert env["python"] == platform.python_version()


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_profile_takes_five_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--help"])
    assert exc.value.code == 0
    assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.MULTILINE) == [
        "--variant", "--size", "--batch", "--reps", "--json"]


# the retired bench command's flags, which profile's variant and size replace
@pytest.mark.parametrize("flag", ["--threads", "--include-projection", "--csv", "--mechanism",
                                  "--channels", "--k", "--knn-k", "--warmup", "--seed"])
def test_bench_rejects_removed_flag(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--variant", "Ti", flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_bench_rejects_low_reps(capsys):
    rc = main(["profile", "--variant", "Ti", "--size", "64", "--reps", "10"])
    assert rc == 2
    assert "reps must be >= 30" in capsys.readouterr().err


# a size is one positive integer; bench's HxW form is gone
@pytest.mark.parametrize("size", ["0", "-3", "7x0", "0x7", "7x-2"])
def test_bench_rejects_nonpositive_size(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--variant", "Ti", "--size", size])
    assert exc.value.code == 2
    assert "--size" in capsys.readouterr().err


@pytest.mark.wallclock
def test_bench_median_stable_when_reps_double(run_with_blas_threads):
    # measured in a new process with BLAS on one thread; the 30-rep and the
    # 60-rep measurement of profile's knn step (Ti's at 448, the map of
    # criterion 7's c = 256 case) are interleaved after a warm-up, so drift
    # in the host's speed over the run reaches both alike. The order is a
    # seeded shuffle: a fixed pattern (two doubled reps, then one first)
    # lined up with a call-to-call cycle of a few percent in this step's
    # time and failed about one run in four
    out = run_with_blas_threads("""
import json
import numpy as np
from mobilevig.arch import get_variant
from mobilevig.bench import aggregation_steps, percentiles_ns, time_once_ns

step = aggregation_steps(get_variant("Ti"), 448)[("knn", 9)]
for _ in range(5):
    step()
first_times, doubled_times = [], []
for is_first in np.random.default_rng(0).permutation([True] * 30 + [False] * 60):
    (first_times if is_first else doubled_times).append(time_once_ns(step))
_, first_p10, first_p90 = percentiles_ns(first_times)
doubled_median, _, _ = percentiles_ns(doubled_times)
print(json.dumps([first_p10, doubled_median, first_p90]))
""", threads=1)
    first_p10, doubled_median, first_p90 = json.loads(out)
    assert first_p10 <= doubled_median <= first_p90


@pytest.mark.parametrize("message", ["Unable to allocate 3.00 TiB for an array", ""])
def test_out_of_memory_exits_two_with_one_error_line(capsys, monkeypatch, message):
    # an input too large to allocate; raised by a stand-in command, since
    # whether malloc refuses a real one at once depends on the host
    from mobilevig import cli

    def oversized(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "forward", oversized)
    assert main(["forward", "--variant", "Ti", "--size", "1048576"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert (message or "out of memory") in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    import mobilevig.verify as verify_mod

    def forced_failure(seed=0):
        return verify_mod.PropertyResult("gradient-check", False, "forced",
                                         {"seed": seed})

    monkeypatch.setitem(verify_mod.SUITES, "grad", forced_failure)
    rc = main(["verify", "--suite", "grad"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "FAIL gradient-check" in captured.out
    assert "counterexample" in captured.err


def test_verify_suite_choices_follow_the_suite_table(capsys, monkeypatch):
    # --suite accepts every name in verify.SUITES, with no copy of the list
    monkeypatch.setitem(verify.SUITES, "dummy",
                        lambda seed=0: verify.PropertyResult("dummy", True, "ran"))
    assert main(["verify", "--suite", "dummy", "--seed", "0"]) == 0
    assert re.fullmatch(r"PASS dummy: ran \(\d+\.\d\d s\)\n", capsys.readouterr().out)


def test_forward_deterministic_and_seed_env(capsys, tmp_path, monkeypatch):
    j1, j2, j3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "9",
                 "--json", str(j1)]) == 0
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "9",
                 "--json", str(j2)]) == 0
    monkeypatch.setenv("MVIG_SEED", "9")
    assert main(["forward", "--variant", "Ti", "--size", "64",
                 "--json", str(j3)]) == 0
    a, b, c = (json.loads(p.read_text()) for p in (j1, j2, j3))
    assert a["logits"] == b["logits"] == c["logits"]
    assert a["top5"] == b["top5"]


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "grad", "--seed", "-1"],
    ["forward", "--variant", "Ti", "--size", "64", "--seed", "-3"],
    ["verify", "--suite", "oracle", "--seed", "x"],
])
def test_bad_seed_flag_names_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer" in err


@pytest.mark.parametrize("value", ["-2", "x"])
def test_bad_seed_env_names_the_variable(capsys, monkeypatch, value):
    monkeypatch.setenv("MVIG_SEED", value)
    rc = main(["forward", "--variant", "Ti", "--size", "64"])
    assert rc == 2
    _assert_one_error_line(capsys, f"MVIG_SEED: expected a non-negative integer, got {value!r}")


def test_forward_save_load_roundtrip(capsys, tmp_path):
    w = tmp_path / "ti.mvig"
    j1, j2 = tmp_path / "x.json", tmp_path / "y.json"
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "4",
                 "--save", str(w), "--json", str(j1)]) == 0
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "4",
                 "--load", str(w), "--json", str(j2)]) == 0
    assert json.loads(j1.read_text())["logits"] == json.loads(j2.read_text())["logits"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_forward_json_writes_nonfinite_logits_as_null(capsys, tmp_path):
    w = tmp_path / "nan.mvig"
    weights = build_model(get_variant("Ti"), 0)
    weights.blocks[0][0].weight[0, 0, 0, 0] = np.nan
    save_weights(str(w), weights)
    out_json = tmp_path / "out.json"
    assert main(["forward", "--variant", "Ti", "--size", "64", "--load", str(w),
                 "--json", str(out_json)]) == 0
    doc = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert None in doc["logits"][0]


def test_verify_counterexample_line_is_strict_json(capsys, monkeypatch):
    monkeypatch.setattr(verify, "grad_check_svga", lambda *a, **kw: float("nan"))
    assert main(["verify", "--suite", "grad", "--seed", "0"]) == 1
    [line] = [ln for ln in capsys.readouterr().err.splitlines()
              if ln.startswith("counterexample: ")]
    doc = json.loads(line.removeprefix("counterexample: "), parse_constant=_reject_constant)
    assert doc["error"] is None


def test_forward_rejects_corrupt_weights(capsys, tmp_path):
    bad = tmp_path / "bad.mvig"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    rc = main(["forward", "--variant", "Ti", "--size", "64", "--load", str(bad)])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["name_length", "truncated", "repeated_name"])
def test_forward_rejects_malformed_weights(capsys, tmp_path, corrupt):
    from mobilevig.arch import VARIANTS, build_model
    from mobilevig.weights_io import save_weights

    path = tmp_path / "ti.mvig"
    save_weights(str(path), build_model(VARIANTS["Ti"], 0))
    data = bytearray(path.read_bytes())
    if corrupt == "name_length":
        data[18:22] = struct.pack("<I", 0xFFFFFFFF)  # first entry's name length
    elif corrupt == "truncated":
        del data[len(data) // 3:]
    else:
        # one more entry, named like the last one (head.fc.bias, 1000 floats)
        count = struct.unpack("<I", data[14:18])[0]
        data[14:18] = struct.pack("<I", count + 1)
        name = b"head.fc.bias"
        data += struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 1000)
        data += np.ones(1000, "<f4").tobytes()
    path.write_bytes(bytes(data))
    rc = main(["forward", "--variant", "Ti", "--size", "64", "--load", str(path)])
    assert rc == 2
    _assert_one_error_line(capsys, "ti.mvig")


def _write_ppm(path, w, h):
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"P6\n# test image\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())
    return pixels


def test_load_ppm_values_and_shape(tmp_path):
    path = tmp_path / "img.ppm"
    pixels = _write_ppm(str(path), 64, 32)
    x = load_ppm(str(path))
    assert x.shape == (1, 3, 32, 64)
    assert x.dtype == np.float32
    assert np.array_equal(x[0], pixels.transpose(2, 0, 1).astype(np.float32) / 255.0)


def test_forward_accepts_ppm(capsys, tmp_path):
    path = tmp_path / "img.ppm"
    _write_ppm(str(path), 64, 64)
    rc = main(["forward", "--variant", "Ti", "--input", str(path), "--seed", "0"])
    assert rc == 0
    assert "top1" in capsys.readouterr().out


def test_forward_ppm_checks_explicit_size(capsys, tmp_path):
    path = tmp_path / "img.ppm"
    _write_ppm(str(path), 64, 64)
    saved = tmp_path / "ti.mvig"
    rc = main(["forward", "--variant", "Ti", "--input", str(path), "--size", "96",
               "--save", str(saved)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "64x64" in err and "--size" in err
    assert not saved.exists()
    assert main(["forward", "--variant", "Ti", "--input", str(path), "--size", "64"]) == 0


def test_forward_rejects_misaligned_ppm(capsys, tmp_path):
    path = tmp_path / "img.ppm"
    _write_ppm(str(path), 60, 64)
    rc = main(["forward", "--variant", "Ti", "--input", str(path)])
    assert rc == 2
    assert "divisible by 32" in capsys.readouterr().err


def test_forward_rejects_non_ppm(capsys, tmp_path):
    path = tmp_path / "img.ppm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
    rc = main(["forward", "--variant", "Ti", "--input", str(path)])
    assert rc == 2
    assert "P6" in capsys.readouterr().err


# a small hand-made P6 file: 2x3 pixels, a comment in the header
_SMALL_PPM = b"P6\n# c\n2 3\n255\n" + bytes(range(0, 36, 2))


def test_small_ppm_loads(tmp_path):
    path = tmp_path / "small.ppm"
    path.write_bytes(_SMALL_PPM)
    x = load_ppm(str(path))
    want = np.arange(0, 36, 2, dtype=np.uint8).reshape(3, 2, 3).transpose(2, 0, 1)
    assert np.array_equal(x[0], want.astype(np.float32) / 255.0)


@pytest.mark.parametrize("header", [
    b"P6 99999999999 99999999999 255 ",
    b"P6 -1 -1 255 ",
    b"P6 +2 3 255 ",
    b"P6 0 3 255 ",
    b"P6 2 0 255 ",
    b"P6 2 3 256 ",
    b"P6 2 3 0x10 ",
    b"P6 " + b"9" * 5000 + b" 3 255 ",
    b"P6 2 3",
    b"P6 2 3 255 ",
    b"P632 32 255\n" + bytes(3072),
], ids=["huge-dims", "negative-dims", "plus-sign", "zero-width", "zero-height",
        "maxval-256", "hex-maxval", "5000-digits", "no-maxval", "short-pixels",
        "magic-glued-to-width"])
def test_load_ppm_rejects_bad_headers_with_value_error(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + b"\x00" * 12)
    with pytest.raises(ValueError, match="bad.ppm"):
        load_ppm(str(path))


def test_load_ppm_every_truncation_raises_value_error(tmp_path):
    path = tmp_path / "cut.ppm"
    for n in range(len(_SMALL_PPM)):
        path.write_bytes(_SMALL_PPM[:n])
        with pytest.raises(ValueError, match="cut.ppm"):
            load_ppm(str(path))


def test_load_ppm_single_bit_flips_load_or_raise_value_error(tmp_path):
    path = tmp_path / "flip.ppm"
    loaded = 0
    for i in range(len(_SMALL_PPM)):
        for bit in range(8):
            mutated = bytearray(_SMALL_PPM)
            mutated[i] ^= 1 << bit
            path.write_bytes(bytes(mutated))
            try:
                x = load_ppm(str(path))
            except ValueError as exc:
                assert "flip.ppm" in str(exc)
            else:
                loaded += 1
                assert x.dtype == np.float32 and x.shape[:2] == (1, 3)
    assert loaded >= 8 * 18  # every pixel-byte flip still loads


@pytest.mark.parametrize("data", [b"P6 -1 -1 255 ", b"P6 99999999999 99999999999 255 ",
                                  _SMALL_PPM[:-1]],
                         ids=["negative-dims", "huge-dims", "truncated"])
def test_forward_rejects_malformed_ppm_with_one_error_line(capsys, tmp_path, data):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    rc = main(["forward", "--variant", "Ti", "--input", str(path)])
    assert rc == 2
    _assert_one_error_line(capsys, "bad.ppm")


def _assert_one_error_line(capsys, path_name):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path_name in err
    assert len(err.strip().splitlines()) == 1


def test_forward_missing_weights_file_exits_two(capsys, tmp_path):
    rc = main(["forward", "--variant", "Ti", "--size", "64",
               "--load", str(tmp_path / "absent.mvig")])
    assert rc == 2
    _assert_one_error_line(capsys, "absent.mvig")


def test_forward_missing_input_file_exits_two(capsys, tmp_path):
    rc = main(["forward", "--variant", "Ti", "--input", str(tmp_path / "absent.ppm")])
    assert rc == 2
    _assert_one_error_line(capsys, "absent.ppm")


def test_unwritable_json_path_exits_two(capsys, tmp_path):
    rc = main(["describe", "--variant", "Ti",
               "--json", str(tmp_path / "no-such-dir" / "out.json")])
    assert rc == 2
    _assert_one_error_line(capsys, "out.json")
