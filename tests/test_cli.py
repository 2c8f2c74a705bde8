import json

import numpy as np

from mobilevig.cli import load_ppm, main


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


def test_bench_reports_and_files(capsys, tmp_path):
    out_json = tmp_path / "bench.json"
    out_csv = tmp_path / "bench.csv"
    rc = main(["bench", "--mechanism", "both", "--size", "7", "--channels", "8",
               "--reps", "30", "--warmup", "5", "--seed", "1",
               "--json", str(out_json), "--csv", str(out_csv)])
    assert rc == 0
    doc = json.loads(out_json.read_text())
    assert {r["mechanism"] for r in doc["records"]} == {"svga", "knn"}
    for r in doc["records"]:
        assert r["reps"] == 30
        assert r["p10_ns"] <= r["median_ns"] <= r["p90_ns"]
    assert doc["env"]["threads"] == 1
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("mechanism,h,w,c,k,batch,reps")
    assert len(lines) == 3


def test_bench_rejects_low_reps(capsys):
    rc = main(["bench", "--reps", "10", "--size", "7", "--channels", "4"])
    assert rc == 2
    assert "reps" in capsys.readouterr().err


def test_bench_median_stable_when_reps_double():
    from mobilevig.bench import time_aggregation

    first = time_aggregation("knn", 14, 14, 64, 9, reps=30, warmup=5, seed=2)
    doubled = time_aggregation("knn", 14, 14, 64, 9, reps=60, warmup=5, seed=2)
    assert first.p10_ns <= doubled.median_ns <= first.p90_ns


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


def test_forward_save_load_roundtrip(capsys, tmp_path):
    w = tmp_path / "ti.mvig"
    j1, j2 = tmp_path / "x.json", tmp_path / "y.json"
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "4",
                 "--save", str(w), "--json", str(j1)]) == 0
    assert main(["forward", "--variant", "Ti", "--size", "64", "--seed", "4",
                 "--load", str(w), "--json", str(j2)]) == 0
    assert json.loads(j1.read_text())["logits"] == json.loads(j2.read_text())["logits"]


def test_forward_rejects_corrupt_weights(capsys, tmp_path):
    bad = tmp_path / "bad.mvig"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    rc = main(["forward", "--variant", "Ti", "--size", "64", "--load", str(bad)])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


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
