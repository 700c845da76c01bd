"""Pipeline benchmark for ttflow: per-density time and Gaussian-oracle error.

Run from the repository root:

    python3 perfbench/run.py --workload mixture-d2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One process, one op after another (a closed loop): an op is one density
through ``run_suite`` or one Gaussian through ``gaussian_check``. With
``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it alternates untraced and traced copies of each op and reports
the per-layer metrics and the tracing overhead. The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every correctness gate and trace check passed.
"""

import os

_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _THREADS:  # before numpy is imported, here and in child processes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="mixture-d2")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny shapes, accuracy gates off (smoke mode uses this)")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny shapes, both trace modes, "
                         "and check the metric names against BENCHMARK.json")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def tail_of(times):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least 10
    samples above it. Below 20 samples none qualifies, and the maximum is
    reported as percentile 100."""
    s = sorted(times)
    n = len(s)
    for pct in TAIL_PERCENTILES:
        k = math.ceil(pct / 100.0 * n) - 1  # nearest-rank percentile index
        if n - 1 - k >= 10:
            return s[k], pct
    return s[-1], 100.0


def speed_probe():
    """Fixed single-thread reference kernel (BLAS matmul plus a Python loop)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256)) / 16.0
    times = []
    for _ in range(7):
        t0 = perf_counter()
        b = a
        for _ in range(24):
            b = np.tanh(a @ b)
        acc = 0
        for k in range(100_000):
            acc += k & 7
        times.append(perf_counter() - t0)
    return statistics.median(times)


def commit():
    """Commit id read from .git inside the checkout, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in _THREADS}, "commit": commit()}


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "ttflow").glob("*.py")))


def child_setup(args):
    """import + warm-up in a fresh interpreter; returns its set-up time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_plain(wmod, wl, args):
    """Closed loop until the window is over; end-to-end metrics."""
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < args.seconds:
        for _ in range(wl.round_ops):
            ops.append(wmod.run_op(wl, args.seed, len(ops),
                                   accuracy_gates=not args.tiny))
    window = perf_counter() - start

    walls = [o.wall for o in ops if not o.failed]
    problems = [p for o in ops for p in o.problems]
    details = {"window_s": window, "density_s": walls}
    if wl.family == "oracle":
        # op 0 is the criterion-2 Gaussian; the seeded ones are gated only
        rep = ops[0].report
        details["gaussians"] = [{k: o.report[k] for k in (
            "mean", "var", "l2_max", "map_discrepancy_finite",
            "map_discrepancy_limit", "limit_bound", "epsilon_rel")}
            for o in ops if o.report is not None]
    else:
        rep, wall, probe_problems = wmod.accuracy_probe(wl)
        problems += probe_problems
        details["accuracy_probe"] = {"samples": wmod.PROBE_SAMPLES, "wall_s": wall,
                                     "mean": rep["mean"], "var": rep["var"]}

    tail, pct = tail_of(walls) if walls else (0.0, 100.0)
    details.update(tail_percentile=pct, tail_samples=len(walls))
    metrics = {
        "density_s.p50": ("s", statistics.median(walls) if walls else 0.0),
        "density_s.tail": ("s", tail),
        "densities_per_s": ("1/s", len(walls) / window),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
        "map_err.finite": ("norm", rep["map_discrepancy_finite"] if rep else 0.0),
        "map_err.limit": ("norm", rep["map_discrepancy_limit"] if rep else 0.0),
        "l2_err.max": ("rel", rep["l2_max"] if rep else 0.0),
    }
    return ops, metrics, problems, details


def run_traced(wmod, wl, args):
    """Untraced and traced copies of each op in turn; per-layer metrics."""
    import spans

    tracer = spans.Tracer()
    pairs = []
    start = perf_counter()
    while not pairs or perf_counter() - start < args.seconds:
        for _ in range(wl.round_ops):
            i = len(pairs)
            plain = wmod.run_op(wl, args.seed, i, accuracy_gates=not args.tiny)
            tracer.op = i
            tracer.install()
            try:
                traced = wmod.run_op(wl, args.seed, i, accuracy_gates=not args.tiny)
            finally:
                tracer.restore()
            pairs.append((plain, traced))

    ops = [o for pair in pairs for o in pair]
    problems = [p for o in ops for p in o.problems]
    good = [(p, t) for p, t in pairs if not (p.failed or t.failed)]
    metrics, calls = spans.per_layer_metrics(tracer, len(pairs))
    overhead = (statistics.median((t.wall - p.wall) / p.wall for p, t in good)
                if good else 0.0)
    metrics["trace.overhead"] = ("ratio", overhead)
    problems += spans.check_calls(wl.name, calls)
    problems += spans.check_spans(
        tracer.spans, {i: t.wall for i, (p, t) in enumerate(pairs) if not t.failed},
        {i: abs(t.wall - p.wall) + 1e-3 for i, (p, t) in enumerate(pairs)})

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                "spans": tracer.spans}))
    details = {"pairs": len(pairs), "spans_file": str(path.relative_to(ROOT)),
               "untraced_s": [p.wall for p, _ in pairs],
               "traced_s": [t.wall for _, t in pairs]}
    return ops, metrics, problems, details


def benchmark(args):
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads as wmod  # imports numpy, scipy and ttflow

    import ttflow

    if Path(ttflow.__file__).resolve().parent != SRC / "ttflow":
        print(f"perfbench: imported ttflow from {ttflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in wmod.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = wmod.WORKLOADS[args.workload]
    if args.tiny:
        wl = wmod.tiny(wl)
    wmod.warm_up(wl)
    setup = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    setups = [setup] + ([] if args.trace else
                        [child_setup(args) for _ in range(SETUP_REPEATS - 1)])

    probe_start = speed_probe()
    run = run_traced if args.trace else run_plain
    ops, metrics, problems, details = run(wmod, wl, args)
    probe_end = speed_probe()

    attempted = len(ops)
    failed = sum(o.failed for o in ops)
    if failed:
        problems.append(f"failed_frac {failed / attempted:.3f} > 0 "
                        f"({failed} of {attempted} ops)")
    if not args.trace:
        metrics = {"setup_s": ("s", statistics.median(setups)), **metrics}

    details.update(
        workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        shape={"d": wl.d, "n_grid": wl.n_grid, "m_steps": wl.m_steps,
               "family": wl.family, "n_samples": wl.n_samples},
        attempted=attempted, failed=failed, failed_frac=failed / attempted,
        setup_samples_s=setups, speed_probe_s={"start": probe_start, "end": probe_end},
        src_lines=src_lines(), environment=environment(), problems=problems)
    for name, (unit, value) in metrics.items():
        print(f"{wl.name:12s} {name:32s} {value:.6g} {unit}")
    for p in problems:
        print(f"FAIL: {p}")
    print("# details " + json.dumps(details))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (u, v) in metrics.items()}}))
    return 0 if not problems else 1


def smoke():
    """Every workload at tiny shapes in both modes; metric names and units
    must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                   "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            label = f"{wl['name']} --trace {trace}"
            print(f"smoke: {label}: exit {proc.returncode} in {perf_counter() - t0:.1f} s")
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                + (proc.stdout + proc.stderr)[-2000:])
                continue
            got = {k: v["unit"] for k, v in
                   json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(want[trace]))}, units "
                                f"{sorted(k for k in got if want[trace].get(k, got[k]) != got[k])}")
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ttflow" / "__init__.py").is_file():
        print(f"perfbench: no ttflow sources under {SRC}", file=sys.stderr)
        return 2
    return smoke() if args.smoke else benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
