"""Benchmark entry point for plantsearch.

    python3 perfbench/run.py --workload {pipeline,search,graph} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed 7 --seconds 10

One run builds its inputs from ``--seed``, sets up several times and
keeps the median set-up time, then runs rounds of the workload until
``--seconds`` have passed (and at least the workload's minimum number
of rounds), checks every operation's output and prints one JSON object
as the last line of standard output. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the package's layers and
reports the per-layer metrics instead. ``--workload all`` runs every
workload untraced and traced, each in its own process, and prints every
metric by name with its unit plus the tracing overhead; it exits 1
when any operation failed its check.

Every run writes its full result, stamped with the environment, to
``perfbench/results/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

# The ROADMAP baseline profile of the default pipeline at seed 7, per run.
BASELINE_SEED = 7
BASELINE_COUNTS = {
    "encoder.featurize.calls": 18239,
    "encoder.featurize.distinct_texts": 2775,
    "losses.edge_ranking_loss_grad.calls": 41850,
    "pairs.quality_filter.calls": 2,
    "synth.generate_plant.calls": 14,
    "kg.load_graph.calls": 75,
    "storage.sha256_file.calls": 133,
}
BASELINE_APPROX = {  # value, absolute tolerance
    "losses.edge_ranking_loss_grad.active_frac": (0.133, 0.0005),
    "storage.sha256_file.mb": (71.0, 0.5),
}

log = logging.getLogger("perfbench")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline", "search", "graph", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment stamp


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    return lines[1] if len(lines) == 2 and Path(lines[0]).resolve() == ROOT else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "plantsearch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas_runtime() -> dict:
    """Version string and thread count reported by the OpenBLAS that numpy loaded."""
    import ctypes

    import numpy as np

    site = Path(np.__file__).resolve().parent.parent
    for lib in sorted((site / "numpy.libs").glob("*openblas*.so*")):
        dll = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(dll, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(dll, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"library": lib.name, "config": get_config().decode(),
                            "threads": get_threads()}
    return {}


def environment(args: argparse.Namespace, config: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime": _openblas_runtime(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload_config": config,
    }


# ---------------------------------------------------------------------------
# One workload run


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("edges_per_s"):
        return "1/s", "higher"
    if name.endswith("_s") or name.endswith(".s"):
        return "s", "lower"
    if name.endswith("us_per_call"):
        return "us", "lower"
    if name.endswith(".mb"):
        return "MB", "lower"
    if name.endswith("_frac"):
        better = "lower" if "repeat" in name or "active" in name else "higher"
        return "ratio", better
    if name == "triplets.emitted":
        return "count", "higher"
    return "count", "lower"


def run_workload(args: argparse.Namespace, import_s: float) -> dict:
    from workloads import WORKLOADS

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        return _measure(args, import_s, WORKLOADS[args.workload](args.seed, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args: argparse.Namespace, import_s: float, wl) -> dict:
    from hostspeed import HostSpeed
    from tracer import Tracer

    setup_times = []
    with HostSpeed() as setup_clock:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append((t0, time.perf_counter()))
    setup_s = setup_clock.scale(import_s) + statistics.median(
        setup_clock.reference_seconds(t0, t1) for t0, t1 in setup_times)
    raw_setup_s = [setup_clock.raw_seconds(t0, t1) for t0, t1 in setup_times]

    tracer = Tracer() if args.trace else None
    rounds = []
    t_timed = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        with HostSpeed() as host:
            while len(rounds) < wl.min_rounds or time.perf_counter() - t_timed < args.seconds:
                rounds.append(wl.run_round(tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    timed_s = time.perf_counter() - t_timed

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    try:
        fin = wl.finish()
        quality, info = fin.quality, fin.info
        failed = min(attempted, failed + fin.failed)
        finished = True
    except Exception:
        log.exception("%s: output check failed", args.workload)
        from workloads import QUALITY_KEYS
        quality, info, finished = {k: 0.0 for k in QUALITY_KEYS}, {}, False
        failed = max(failed, 1)

    def total(clock, intervals) -> float:
        return sum(clock(t0, t1) for t0, t1 in intervals)

    walls = [total(host.reference_seconds, r.parts) for r in rounds]
    latencies = [total(host.reference_seconds, q) for r in rounds for q in r.requests]
    raw_walls = [total(host.raw_seconds, r.parts) for r in rounds]
    raw_latencies = [total(host.raw_seconds, q) for r in rounds for q in r.requests]
    p95 = _percentile(latencies, 95)
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "latency_p50_ms": (1e3 * _percentile(latencies, 50), "ms"),
            "latency_p95_ms": (1e3 * p95, "ms"),
            # map10 stays in the result file only: on pipeline it spreads ~0.19 across seeds.
            **{k: (v, "%") for k, v in quality.items() if k != "map10"},
        }
    else:
        layers = tracer.layer_metrics(len(rounds))
        op_s = sum(v for k, v in tracer.seconds.items() if k.startswith("op."))
        stage_s = sum(v for k, v in tracer.seconds.items() if k.startswith("cli."))
        layers["cli.coverage_frac"] = stage_s / op_s
        layers["ir_eval.rank_corpus.repeat_query_frac"] = info.get("query_repeat_frac", 0.0)
        layers["trace.wall_s"] = statistics.median(walls)
        metrics = {k: (v, layer_unit(k)[0]) for k, v in layers.items()}

    result = {
        "environment": environment(args, wl.config),
        "correct": finished and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "timing": {
            "import_s": import_s,
            "raw_setup_repeats_s": raw_setup_s,
            "timed_section_s": timed_s,
            "rounds": len(rounds),
            "round_walls_reference_s": walls,
            "round_walls_raw_s": raw_walls,
            "raw_wall_s": statistics.median(raw_walls),
            "raw_latency_p50_ms": 1e3 * _percentile(raw_latencies, 50),
            "raw_latency_p95_ms": 1e3 * _percentile(raw_latencies, 95),
            "latency_samples": len(latencies),
            "latency_samples_above_p95": sum(x > p95 for x in latencies),
            "host_kernel_samples": len(host.durations),
            "host_kernel_median_s": statistics.median(host.durations),
            "host_kernel_share": sum(host.durations) / timed_s,
        },
        "quality": quality,
        "info": info,
    }
    if tracer is not None:
        result["trace"] = _trace_extras(args, tracer, result)
    return result


def _trace_extras(args: argparse.Namespace, tracer, result: dict) -> dict:
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path)
    extras: dict = {"spans_file": spans_path.name, "spans": len(tracer.spans),
                    "missing_targets": tracer.missing}
    if tracer.missing:
        log.warning("not traced, so reading 0: %s", ", ".join(tracer.missing))
    untraced = RESULTS / f"{args.workload}-seed{args.seed}-trace0.json"
    if untraced.exists():
        base = json.loads(untraced.read_text(encoding="utf-8"))["metrics"]["wall_s"]["value"]
        traced = result["metrics"]["trace.wall_s"]["value"]
        extras["overhead"] = {"untraced_wall_s": base, "traced_wall_s": traced,
                              "overhead_s": traced - base, "overhead_frac": traced / base - 1.0}
    if args.workload == "pipeline" and args.seed == BASELINE_SEED:
        # A record against the ROADMAP profile, not a gate: a change that
        # featurizes less is meant to move these counts.
        got = {k: v["value"] for k, v in result["metrics"].items()}
        check = {k: {"expected": want, "got": got[k], "match": got[k] == want}
                 for k, want in BASELINE_COUNTS.items()}
        for k, (want, tol) in BASELINE_APPROX.items():
            check[k] = {"expected": want, "got": got[k], "match": abs(got[k] - want) <= tol}
        extras["baseline_seed7"] = check
        for k, c in check.items():
            if not c["match"]:
                log.warning("baseline count %s: expected %s, got %s", k, c["expected"], c["got"])
    return extras


def _check_declared(metrics: dict, trace: int) -> None:
    """The reported metric names must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = {k: v["unit"] for k, v in metrics.items()}
    if declared != reported:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(declared.items()) ^ set(reported.items()))}")


# ---------------------------------------------------------------------------
# All workloads, one process each


def run_all(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results: dict[str, dict] = {}
    for w in (wl["name"] for wl in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{w} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[f"{w}:{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        print(f"\n== {title} metrics, seed {args.seed} ==")
        for w in (wl["name"] for wl in spec["workloads"]):
            r = results[f"{w}:{trace}"]
            print(f"-- {w}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}")
            for name, m in r["metrics"].items():
                print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
            if trace == 0:
                saved = json.loads((RESULTS / f"{w}-seed{args.seed}-trace0.json").read_text())
                for name in sorted(set(saved["quality"]) - set(r["metrics"])):
                    print(f"   {name + ' (result file)':<48} {saved['quality'][name]:>14.6g} %")
    print("\n== tracing overhead (traced wall_s - untraced wall_s) ==")
    for w in (wl["name"] for wl in spec["workloads"]):
        saved = json.loads((RESULTS / f"{w}-seed{args.seed}-trace1.json").read_text())
        ov = saved["trace"].get("overhead", {})
        print(f"   {w:<10} {ov.get('overhead_s', float('nan')):+.3f} s "
              f"({100 * ov.get('overhead_frac', float('nan')):+.1f}%)")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "plantsearch" / "__init__.py").is_file():
        print(f"perfbench: no plantsearch sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import plantsearch

    if Path(plantsearch.__file__).resolve().parent != SRC / "plantsearch":
        print(f"perfbench: imported plantsearch from {plantsearch.__file__}", file=sys.stderr)
        return 2
    import workloads  # noqa: F401

    import_s = time.perf_counter() - T_START
    result = run_workload(args, import_s)
    _check_declared(result["metrics"], args.trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
