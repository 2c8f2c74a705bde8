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


def test_verify_json_writes_measured_readings(capsys, tmp_path, monkeypatch):
    # the knn suite's cost medians and ratio go to "measured"; a suite that
    # times nothing writes an empty object
    monkeypatch.setattr(bench, "time_once_ns",
                        lambda step: {7: 1_000_000, 14: 5_000_000}[step.args[0].shape[2]])
    out_json = tmp_path / "verify.json"
    for suite in ("knn", "oracle"):
        assert main(["verify", "--suite", suite, "--seed", "0", "--json", str(out_json)]) == 0
        [doc] = json.loads(out_json.read_text())["suites"]
        assert list(doc) == ["name", "ok", "detail", "seconds", "measured", "counterexample"]
        assert doc["measured"] == ({"ratio": 5.0, "median_7x7_ms": 1.0, "median_14x14_ms": 5.0}
                                   if suite == "knn" else {})


def test_bench_reports_and_files(capsys, tmp_path):
    out_json = tmp_path / "bench.json"
    rc = main(["bench", "--size", "7", "--channels", "8",
               "--reps", "30", "--warmup", "5", "--seed", "1",
               "--json", str(out_json)])
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert {r["mechanism"] for r in doc["records"]} == {"svga", "knn"}
    for r in doc["records"]:
        assert r["reps"] == 30
        assert r["p10_ns"] <= r["median_ns"] <= r["p90_ns"]


def test_bench_alternates_the_mechanisms(monkeypatch):
    # svga and knn take turns through warm-up and samples, so that host load
    # lands on both; the records keep their keys and come svga first
    calls = []
    monkeypatch.setattr(bench, "mrconv_aggregate", lambda x, k: calls.append("svga"))
    monkeypatch.setattr(bench, "knn_graph", lambda x, k: calls.append("knn"))
    monkeypatch.setattr(bench, "knn_aggregate", lambda x, adj: None)
    report = bench.run_bench(7, 7, 8, svga_k=2, knn_k=9, reps=30, warmup=5)
    assert calls == ["svga", "knn"] * 35
    assert [(r["mechanism"], r["k"]) for r in report["records"]] == [("svga", 2), ("knn", 9)]
    for r in report["records"]:
        assert list(r) == ["mechanism", "h", "w", "c", "k", "batch", "reps",
                           "median_ns", "p10_ns", "p90_ns"]


def test_bench_env_records_settings_in_effect(capsys, monkeypatch, tmp_path):
    import platform

    from mobilevig.tensor_core import _openblas

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "4")  # restored after the test
    out_json = tmp_path / "bench.json"
    assert main(["bench", "--size", "7", "--channels", "8",
                 "--reps", "30", "--warmup", "5", "--json", str(out_json)]) == 0
    env = json.loads(out_json.read_text())["env"]
    assert set(env) == {"blas", "blas_in_force", "thread_vars", "cpu_model",
                        "numpy", "python", "git_commit"}
    # the knn step's GEMMs ran at one thread; the report gives the counts
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


@pytest.mark.parametrize("flag", ["--threads", "--include-projection", "--csv", "--mechanism"])
def test_bench_rejects_removed_flag(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", flag])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_bench_rejects_low_reps(capsys):
    rc = main(["bench", "--reps", "10", "--size", "7", "--channels", "4"])
    assert rc == 2
    assert "reps" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["0", "-3", "7x0", "0x7", "7x-2"])
def test_bench_rejects_nonpositive_size(capsys, size):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--size", size, "--channels", "4"])
    assert exc.value.code == 2
    assert "--size" in capsys.readouterr().err


@pytest.mark.wallclock
def test_bench_median_stable_when_reps_double(run_with_blas_threads):
    # measured in a new process with BLAS on one thread; the 30-rep and the
    # 60-rep measurement of run_bench's knn operation are interleaved
    # after a warm-up, so drift in the host's speed over the run reaches both
    # alike
    out = run_with_blas_threads("""
import json
import re
from mobilevig.bench import aggregation_step, percentiles_ns, time_once_ns

step = aggregation_step("knn", 14, 14, 64, 9, seed=2)
for _ in range(5):
    step()
first_times, doubled_times = [], []
for i in range(60):
    doubled_times.append(time_once_ns(step))
    if i % 2:
        first_times.append(time_once_ns(step))
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
    ["bench", "--size", "7", "--channels", "4", "--seed", "x"],
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
], ids=["huge-dims", "negative-dims", "plus-sign", "zero-width", "zero-height",
        "maxval-256", "hex-maxval", "5000-digits", "no-maxval", "short-pixels"])
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
