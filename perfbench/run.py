"""MobileViG benchmark: one workload per run, closed loop, one client, BLAS
pinned to one thread.

    python3 perfbench/run.py --workload fwd224_b1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the run times untraced ops, each between two runs of the
workload's fixed reference computation (reference.py), and reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced ops
and reports the per-layer metrics from the traced ones. Every op's output
is checked outside the timed region. Human-readable lines come first; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every check passed. A full
record (environment, samples, failures) and the span file go to
perfbench/.work/.

Run from the repository root; the program is imported from src/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOAD_NAMES = ("fwd224_b1", "graph28", "verify_nograd", "verify_all")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3       # set-ups per run: this process plus fresh child processes
SETUP_TIMEOUT_S = 120
COVERAGE_BOUND = 0.10   # top-level model spans must sum to within 10% of latency
# Layers that run only in the gradient suite. BENCHMARK.json does not list
# verify_all, the one workload that runs it (the suite fails at most seeds),
# so these per-layer metrics are reported on verify_all runs only.
GRAD_ONLY = ("verify.grad.s", "grad_check.grad_check_svga.ms")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="'all' runs every workload in turn, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for set-up samples)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _ms(ns) -> float:
    return float(ns) / 1e6


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _child_setup(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr[-2000:]}")
    setup_s, scale = done.stdout.split()[-2:]
    return float(setup_s), float(scale)


class Ledger:
    """Counts ops and keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, problems: list[str], label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: " + "; ".join(problems))


def _timed_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0


def run_untraced(wl, ctx, seconds, ledger, reference=lambda: None):
    """Closed loop of ops. The reference runs before the first op and after
    every step of every op, so each step sits between two reference runs.
    Returns op times, op times relative to the reference (each step's time
    over the mean of the two reference runs beside it, summed over the op's
    steps), reference times and the op's timed parts."""
    steps = wl.steps(ctx) if wl.steps else [lambda: wl.op(ctx)]
    lat, step_ns, refs, parts = [], [], [_timed_ns(reference)], {}
    start = time.perf_counter()
    while not lat or time.perf_counter() - start < seconds:
        outs = []
        for step in steps:
            t0 = time.perf_counter_ns()
            outs.append(step())
            step_ns.append(time.perf_counter_ns() - t0)
            refs.append(_timed_ns(reference))
        lat.append(sum(step_ns[-len(steps):]))
        out = [r for o in outs for r in o] if wl.steps else outs[0]
        for key, ns in wl.parts(out).items():
            parts.setdefault(key, []).append(ns)
        ledger.record(wl.check(ctx, out), f"op {len(lat) - 1}")
    per_step = relative(step_ns, refs)
    rel = [sum(per_step[i:i + len(steps)]) for i in range(0, len(per_step), len(steps))]
    return lat, rel, refs, parts


def relative(lat, refs) -> list[float]:
    """Each time over the mean time of the two reference runs beside it."""
    return [op / ((a + b) / 2) for op, a, b in zip(lat, refs, refs[1:])]


def end_to_end(rel, setups) -> dict:
    """setups: (set-up wall time, reference.setup_scale() right after it)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_rel": (_median(rel), "x_ref"),
        "setup_s": (_median([wall * scale for wall, scale in setups]), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def run_traced(wl, ctx, tracer, seconds, ledger, trace_check):
    """Alternates untraced and traced ops (the order flips every pair) and
    checks both outputs, that they are bitwise equal, and the traced op's
    counts (trace_check)."""
    plain, traced = [], []
    start = time.perf_counter()
    pair = 0
    while not traced or time.perf_counter() - start < seconds:
        outs = {}
        for mode in (("plain", "traced") if pair % 2 == 0 else ("traced", "plain")):
            if mode == "traced":
                with tracer.active(pair):
                    t0 = time.perf_counter_ns()
                    outs[mode] = wl.op(ctx)
                    traced.append(time.perf_counter_ns() - t0)
            else:
                t0 = time.perf_counter_ns()
                outs[mode] = wl.op(ctx)
                plain.append(time.perf_counter_ns() - t0)
        ledger.record(wl.check(ctx, outs["plain"]), f"untraced op {pair}")
        problems = wl.check(ctx, outs["traced"]) + trace_check(pair)
        if not wl.same(outs["plain"], outs["traced"]):
            problems.append("traced output differs bitwise from the untraced output")
        ledger.record(problems, f"traced op {pair}")
        pair += 1
    return plain, traced


def op_counts(spans: dict) -> dict:
    """Counts of one traced op that must repeat exactly from op to op."""
    def get(name, key):
        return int(spans[name][key]) if name in spans else 0

    return {
        "tensor_core.conv2d_dense.calls": get("tensor_core.conv2d_dense", "calls"),
        "tensor_core.conv2d_depthwise.calls": get("tensor_core.conv2d_depthwise", "calls"),
        "tensor_core.macs": sum(int(row.get("macs", 0)) for name, row in spans.items()
                                if name.startswith("tensor_core.")),
        "knn.nodes": get("knn.knn_graph", "nodes"),
    }


class CountCheck:
    """Each traced op's counts must equal the first traced op's, and its
    MACs must equal arch.count_macs when that is given."""

    def __init__(self, tracer, expect_macs):
        self.tracer = tracer
        self.expect_macs = expect_macs
        self.first = None

    def __call__(self, op_id: int) -> list[str]:
        counts = op_counts(self.tracer.per_op([op_id])[op_id])
        self.first = self.first or counts
        problems = []
        if counts != self.first:
            problems.append(f"counts {counts} != first traced op's {self.first}")
        if self.expect_macs is not None and counts["tensor_core.macs"] != self.expect_macs:
            problems.append(f"traced MACs {counts['tensor_core.macs']} != "
                            f"arch.count_macs {self.expect_macs}")
        return problems


def layer_metrics(tracer, plain, traced, model_run):
    """Per-layer metrics: medians over traced ops of each op's totals, and
    the problems found with them (span coverage outside its bound)."""
    ops = range(len(traced))
    per_op = tracer.per_op(list(ops) + [-1])
    setup = per_op[-1]

    def total(o, name, key="ns"):
        return per_op[o][name][key] if name in per_op[o] else 0

    def ms(name):
        return _median([_ms(total(o, name)) for o in ops])

    def ratio(name, num, den, scale=1.0):
        return _median([scale * total(o, name, num) / total(o, name, den)
                        if total(o, name, den) else 0.0 for o in ops])

    def tc_sum(o, key):
        return sum(row[key] for name, row in per_op[o].items()
                   if name.startswith("tensor_core.") and key in row)

    counts = op_counts(per_op[0])
    untraced_ms = _ms(_median(plain))
    coverage = 0.0
    if model_run:
        coverage = _median([tracer.block_coverage_ns(o) / plain[o] for o in ops])
    knn_ms = ms("knn.knn_graph") + ms("knn.knn_aggregate")
    svga_ms = ms("svga.mrconv_aggregate")
    m = {
        "tensor_core.conv2d_dense.ms": (ms("tensor_core.conv2d_dense"), "ms"),
        "tensor_core.conv2d_dense.calls": (counts["tensor_core.conv2d_dense.calls"], "count"),
        "tensor_core.conv2d_dense.gmac_per_s":
            (ratio("tensor_core.conv2d_dense", "macs", "ns"), "GMAC/s"),
        "tensor_core.conv2d_depthwise.ms": (ms("tensor_core.conv2d_depthwise"), "ms"),
        "tensor_core.conv2d_depthwise.gmac_per_s":
            (ratio("tensor_core.conv2d_depthwise", "macs", "ns"), "GMAC/s"),
        "tensor_core.batchnorm_infer.ms": (ms("tensor_core.batchnorm_infer"), "ms"),
        "tensor_core.gelu.ms": (ms("tensor_core.gelu"), "ms"),
        "tensor_core.gelu.ns_per_elem": (ratio("tensor_core.gelu", "ns", "elems"), "ns/elem"),
        "tensor_core.elementwise.ms": (ms("tensor_core.elementwise"), "ms"),
        "tensor_core.macs": (counts["tensor_core.macs"], "MAC_computed"),
        "tensor_core.bytes": (_median([tc_sum(o, "bytes") for o in ops]), "B_computed"),
        "arch.stem.ms": (ms("arch.stem"), "ms"),
        "arch.stage1.ms": (ms("arch.stage1"), "ms"),
        "arch.stage2.ms": (ms("arch.stage2"), "ms"),
        "arch.stage3.ms": (ms("arch.stage3"), "ms"),
        "arch.stage4.ms": (ms("arch.stage4"), "ms"),
        "arch.downsample.ms": (ms("arch.downsample"), "ms"),
        "arch.head.ms": (ms("arch.head"), "ms"),
        "arch.span_coverage": (coverage, "ratio"),
        "svga.grapher.ms": (ms("svga.grapher"), "ms"),
        "svga.ffn.ms": (ms("svga.ffn"), "ms"),
        "svga.mrconv_aggregate.ms": (svga_ms, "ms"),
        "svga.gather_aggregate.ms": (ms("svga.gather_aggregate"), "ms"),
        "knn.knn_graph.ms": (ms("knn.knn_graph"), "ms"),
        "knn.pairwise_sq_dists.ms": (ms("knn.pairwise_sq_dists"), "ms"),
        "knn.knn_aggregate.ms": (ms("knn.knn_aggregate"), "ms"),
        "knn.nodes": (counts["knn.nodes"], "count"),
        "knn.over_svga": (knn_ms / svga_ms if svga_ms else 0.0, "ratio"),
        "weights_io.load_into_model.ms":
            (_ms(setup["weights_io.load_into_model"]["ns"]), "ms"),
        "weights_io.load_weights.ms": (_ms(setup["weights_io.load_weights"]["ns"]), "ms"),
        "weights_io.bytes_read": (setup["weights_io.load_weights"]["bytes_read"], "B"),
        "weights_io.skeleton_build.ms": (_ms(setup["weights_io.skeleton_build"]["ns"]), "ms"),
        "verify.oracle.s": (ms("verify.oracle") / 1e3, "s"),
        "verify.equivariance.s": (ms("verify.equivariance") / 1e3, "s"),
        "verify.grad.s": (ms("verify.grad") / 1e3, "s"),
        "verify.knn.s": (ms("verify.knn") / 1e3, "s"),
        "grad_check.grad_check_svga.ms": (ms("grad_check.grad_check_svga"), "ms"),
        "trace.untraced_p50_ms": (untraced_ms, "ms"),
        "trace.traced_p50_ms": (_ms(_median(traced)), "ms"),
        "trace.overhead_ms": (_ms(_median(traced)) - untraced_ms, "ms"),
    }
    problems = []
    if model_run and abs(coverage - 1.0) > COVERAGE_BOUND:
        problems.append(f"arch.span_coverage {coverage:.3f} is outside 1 +- {COVERAGE_BOUND}")
    self_ms = {}
    for name in sorted({n for o in ops for n in per_op[o]}):
        self_ms[name] = _median([_ms(total(o, name, "self_ns")) for o in ops])
    return m, self_ms, problems


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                cwd=ROOT).returncode
                 for name in WORKLOAD_NAMES]
        return max(codes)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import envinfo
        import reference
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from mobilevig import arch

    WORK.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    variant = workloads.VARIANT
    tracer = tracing.Tracer(variant.stage_channels, variant.stage_depths[3]) \
        if args.trace else None
    scope = (lambda: tracer.active(-1)) if tracer else contextlib.nullcontext
    ctx = wl.setup(args.seed, WORK, scope)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_s), repr(reference.setup_scale()))
        return 0

    ledger = Ledger()
    run_problems = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client, 1 process"}
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    if tracer is None:
        setups = [(setup_s, reference.setup_scale())]
        ref = reference.REFERENCES[args.workload]
        ref()  # warm-up
        lat, rel, refs, parts = run_untraced(wl, ctx, args.seconds, ledger, ref)
        setups += [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(rel, setups)
        record.update(samples_ns=lat, relative=rel, reference_ns=refs,
                      setup_samples=setups, parts_ns=parts)
        lines.append(f"ops: {len(lat)} timed, {len(refs)} reference runs; "
                     f"setup samples: {len(setups)}")
        # printed, not gated: wall times follow the shared host's drift, so
        # their spread between runs is wider than any bound BENCHMARK.json
        # may set (at most 0.25); latency_p50_rel divides the drift out
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
        lines.append(f"latency_p50_ms = {_ms(_median(lat)):.4f} ms")
        lines.append(f"latency_p90_ms = {_ms(p90):.4f} ms (n={len(lat)}, "
                     f"{sum(v > p90 for v in lat)} beyond)")
        lines.append(f"ops_per_s = {len(lat) / (sum(lat) / 1e9):.6g} 1/s")
        lines.append(f"reference_p50_ms = {_ms(_median(refs)):.4f} ms")
        lines.append(f"setup_wall_s = {_median([wall for wall, _ in setups]):.4f} s")
        for key, ns in parts.items():
            lines.append(f"{key}_p50_ms = {_ms(_median(ns)):.4f} ms (n={len(ns)})")
            lines.append(f"{key}_p50_rel = {_median(relative(ns, refs)):.6g} x_ref")
    else:
        model_run = args.workload == "fwd224_b1"
        expect = arch.count_macs(variant, workloads.FWD_SIZE, workloads.FWD_SIZE) \
            if model_run else None
        plain, traced = run_traced(wl, ctx, tracer, args.seconds, ledger,
                                   CountCheck(tracer, expect))
        metrics, self_ms, run_problems = layer_metrics(tracer, plain, traced, model_run)
        if args.workload != "verify_all":
            for name in GRAD_ONLY:
                del metrics[name]
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(trace_path))
        record.update(untraced_ns=plain, traced_ns=traced, self_ms=self_ms,
                      span_file=str(trace_path.relative_to(ROOT)))
        lines.append(f"ops: {len(traced)} traced, {len(plain)} untraced; "
                     f"{len(tracer.names)} spans")
        lines += [f"self {name} = {v:.4f} ms" for name, v in self_ms.items()]

    record["env"] = envinfo.environment(ROOT, THREAD_VARS)  # after timing: it runs git
    error_rate = ledger.failed / ledger.attempted
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  attempted=ledger.attempted, failed=ledger.failed,
                  error_rate=error_rate, failures=ledger.messages + run_problems)
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(record, f, indent=1)

    print("env " + json.dumps(record["env"]))
    print(*lines, sep="\n")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {error_rate:.6g} ratio ({ledger.failed} failed of "
          f"{ledger.attempted} attempted)")
    for msg in ledger.messages + run_problems:
        print("FAILED " + msg, file=sys.stderr)
    correct = ledger.failed == 0 and not run_problems
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
