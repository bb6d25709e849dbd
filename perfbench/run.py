"""Benchmark of the flooding reproduction: flooding-trial throughput and
paper-table time, with a traced run for per-layer time.

Run from the repository root::

    python3 perfbench/run.py --workload canonical --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, a metric table, BENCHMARK.json
    python3 perfbench/run.py --compare base.json new.json

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Everything the
run writes goes under ``.bench_build/`` in the repository root.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first line of a fresh process

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Fresh processes whose set-up is timed per run, half just before and
#: half just after the timed units (plus one untimed first, which warms
#: the build cache); ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Timed units per run, at least, whatever ``--seconds`` says.
MIN_UNITS = 2

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _environment() -> None:
    """One thread per process, and every file the run writes inside BUILD.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_CEXT_CACHE"] = str(BUILD / "cext")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    sys.path.insert(0, src)


def _reset_peak_rss() -> None:
    """Return freed memory to the system and restart the kernel's peak-RSS
    record (``VmHWM``) at the current RSS, so the next reading is the peak
    of the next unit alone, not of memory an earlier unit left mapped."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    Path("/proc/self/clear_refs").write_text("5")


def _peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`_reset_peak_rss`, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Set-up, timed in fresh processes
# ----------------------------------------------------------------------
def probe_setup(name: str, seed: int) -> None:
    """Child mode: perform the workload's set-up once and report its time."""
    import workloads

    phases = workloads.make(name, seed, BUILD / "work").setup()
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "phases": phases}))


def _probe(name: str, seed: int) -> dict:
    """Set-up of the workload in a fresh process, followed by the reference
    import: ``{"setup_s", "phases", "import_s"}``."""
    from host import reference_import_s

    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", name,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["import_s"] = reference_import_s()
    return result


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from host import IMPORT_NOMINAL_S, HostClock
    from provenance import provenance
    from tracing import UNIT, Tracer, install

    from repro.kernels import compile_events

    work_dir = BUILD / "work" / f"{name}-{os.getpid()}"
    clock = HostClock()
    _probe(name, seed)  # untimed: builds the kernel cache, warms the page cache
    # Set-up probes: half here, half after the timed units.
    probes = [_probe(name, seed) for _ in range(SETUP_REPEATS // 2)]
    workload = workloads.make(name, seed, work_dir)
    workload.setup()
    prov = provenance(workload.kernels, ROOT)
    print(json.dumps({"provenance": prov}), flush=True)

    try:
        # Warm-up unit: untimed, but checked (it is the table reference).
        _wall, _norm, outcome = workload.run_unit(-1, clock)
        _a, warm_failed, problems, _s = workload.check_unit(-1, outcome)
        events_before = compile_events()

        tracer = Tracer() if trace else None
        times = {False: [], True: []}  # traced? -> unit wall times
        norms = {False: [], True: []}  # traced? -> unit normalized times
        peaks = []  # peak RSS of each untraced unit
        traced_roots = []
        attempted = failed = checks_failed = 0
        index = 0
        while index < MIN_UNITS or sum(times[False]) + sum(times[True]) < seconds:
            traced = trace and index % 2 == 1
            if traced:
                patches = install(tracer)
                clock.tracer = tracer
                root = tracer.open(UNIT)
                try:
                    wall, norm, outcome = workload.run_unit(index, clock, tracer)
                finally:
                    tracer.close(root)
                    clock.tracer = None
                    patches.restore()
                traced_roots.append(root)
            else:
                _reset_peak_rss()
                wall, norm, outcome = workload.run_unit(index, clock)
                peaks.append(_peak_rss_mb())
            times[traced].append(wall)
            norms[traced].append(norm)
            a, f, found, shape = workload.check_unit(index, outcome)
            attempted += a
            failed += f
            checks_failed += shape
            problems += found
            index += 1
        compile_delta = compile_events() - events_before
        probes += [_probe(name, seed) for _ in range(SETUP_REPEATS - len(probes))]
        oracle_failed, found, replayed = workload.finish()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed += warm_failed + oracle_failed
    problems += found
    if compile_delta:
        problems.append(f"{compile_delta} compile events during timed units")

    def rate(seconds: list) -> float:
        return workload.items_per_unit * len(seconds) / sum(seconds)

    units = norms[False]
    q1, p50, q3 = _quartiles(units)
    setup_s = IMPORT_NOMINAL_S * statistics.median(p["setup_s"] / p["import_s"] for p in probes)
    doc = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": prov,
        "correct": failed == 0 and compile_delta == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "units": len(units),
        "unit_s_q1": q1,
        "unit_s_q3": q3,
        "items_per_unit": workload.items_per_unit,
        "oracle_trials": replayed,
        "checks_failed": checks_failed,
        "wall_unit_s_p50": statistics.median(times[False]),
        "wall_items_per_s": rate(times[False]),
        "wall_setup_s": statistics.median(p["setup_s"] for p in probes),
        "host_factor": sum(units) / sum(times[False]),
        "import_s_p50": statistics.median(p["import_s"] for p in probes),
        "setup_phases": {
            key: statistics.median(p["phases"][key] for p in probes)
            for key in probes[0]["phases"]
        },
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": problems,
    }
    if not trace:
        doc["metrics"] = {
            "unit_s_p50": (p50, "s"),
            "items_per_s": (rate(units), "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (statistics.median_low(peaks), "MB"),
        }
        return doc

    layer = _layer_metrics(tracer, traced_roots)
    layer["kernels.load_s"] = doc["setup_phases"]["kernels.load_s"]
    layer["kernels.compile_events"] = compile_delta
    layer["experiments.checks_failed"] = checks_failed / index
    layer["trace.overhead_frac"] = rate(units) / rate(norms[True]) - 1.0
    import spec

    doc["metrics"] = {n: (layer.get(n, 0.0), unit) for n, unit, _better in spec.per_layer()}
    doc["trace_file"] = str(_write_trace(name, seed, tracer, traced_roots))
    return doc


def _layer_metrics(tracer, roots: list) -> dict:
    """Per-unit means of span times and counters over the traced units."""
    from tracing import inclusive_times, self_times

    k = len(roots)
    total_self = {}
    total_incl = {}
    balance = 0.0
    wall = 0.0
    for root in roots:
        own = self_times(tracer.spans, root)
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        balance = max(balance, abs(sum(own.values()) - duration))
        wall += duration
        for key, value in own.items():
            total_self[key] = total_self.get(key, 0.0) + value
        for key, value in inclusive_times(tracer.spans, root).items():
            total_incl[key] = total_incl.get(key, 0.0) + value
    out = {f"{key}_s": value / k for key, value in total_incl.items() if key != "bench.unit"}
    out["protocols.self_s"] = total_self.get("protocols.step", 0.0) / k
    out["simulation.loop_self_s"] = total_self.get("simulation.loop", 0.0) / k
    out["trace.unit_s"] = wall / k
    out["trace.residual_s"] = total_self.get("bench.unit", 0.0) / k
    out["trace.balance_err_s"] = balance
    counts = tracer.counters
    for key, value in counts.items():
        out[key] = value / k
    queries = counts.get("geometry.queries", 0.0)
    out["geometry.hit_frac"] = counts.get("geometry.hits", 0.0) / queries if queries else 0.0
    slots = counts.get("simulation.replica_slots", 0.0)
    out["simulation.active_frac"] = counts.get("simulation.replica_steps", 0.0) / slots if slots else 0.0
    return out


def _write_trace(name: str, seed: int, tracer, roots: list) -> Path:
    """Every span plus, per traced unit, its self times by span name."""
    from tracing import self_times

    path = BUILD / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    units = []
    for root in roots:
        own = self_times(tracer.spans, root)
        units.append({
            "wall_s": tracer.spans[root][2] - tracer.spans[root][1],
            "residual_s": own.pop("bench.unit", 0.0),
            "self_s": own,
        })
    payload = {
        "fields": ["name", "start", "end", "parent"],
        "spans": tracer.spans,
        "units": units,
    }
    path.write_text(json.dumps(payload))
    return path


def _result_line(doc: dict) -> str:
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in doc["metrics"].items()},
    })


# ----------------------------------------------------------------------
# Every workload, and comparisons
# ----------------------------------------------------------------------
#: Metric names used in the table of ``--all``: a unit is a batch on the
#: flooding workloads and a pass over the tables on ``paper-tables``.
TABLE_ROWS = {
    "flooding": [("trials_per_s", "items_per_s", "1/s"), ("batch_s_p50", "unit_s_p50", "s")],
    "tables": [("suite_s_p50", "unit_s_p50", "s")],
}


def run_all(seconds: float, trace: bool) -> int:
    import spec
    import workloads

    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    ok = True
    print(f"{'workload':<14}{'metric':<16}{'value':>12}  unit   detail")
    for name in spec.WORKLOADS:
        seed = workloads.DEFAULT_SEEDS[name]
        out = results / f"{name}.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        doc = json.loads(out.read_text())
        ok = ok and doc["correct"]
        for problem in doc["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
        metrics = doc["metrics"]
        if trace:
            for metric, (value, unit) in metrics.items():
                print(f"{name:<14}{metric:<34}{value:>12.6g}  {unit}")
            continue
        kind = "flooding" if name in workloads.FLOODING else "tables"
        quart = f"n={doc['units']} q1={doc['unit_s_q1']:.4f} q3={doc['unit_s_q3']:.4f}"
        for label, key, unit in TABLE_ROWS[kind]:
            detail = quart if key == "unit_s_p50" else ""
            print(f"{name:<14}{label:<16}{metrics[key][0]:>12.4f}  {unit:<6} {detail}")
        print(f"{name:<14}{'setup_s':<16}{metrics['setup_s'][0]:>12.4f}  s")
        print(f"{name:<14}{'peak_rss_mb':<16}{metrics['peak_rss_mb'][0]:>12.1f}  MB")
        print(f"{name:<14}{'failed_frac':<16}{doc['failed_frac']:>12.4f}  ratio  "
              f"failed={doc['failed']} attempted={doc['attempted']} "
              f"oracle={doc['oracle_trials']} shape_fails={doc['checks_failed']}")
    (ROOT / "BENCHMARK.json").write_text(spec.render())
    return 0 if ok else 1


def compare(base_path: str, new_path: str) -> int:
    """Per-metric ratio of two ``--out`` documents; refuses to compare runs
    of different workloads or different code paths."""
    from provenance import path_differences

    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    refusals = path_differences(base["provenance"], new["provenance"])
    if base["workload"] != new["workload"]:
        refusals.append(f"workload: {base['workload']} -> {new['workload']}")
    if base["trace"] != new["trace"]:
        refusals.append(f"trace: {base['trace']} -> {new['trace']}")
    if refusals:
        print("refusing to compare runs of different code paths:", file=sys.stderr)
        for line in refusals:
            print(f"  {line}", file=sys.stderr)
        return 3
    print(f"{'metric':<34}{'base':>12}{'new':>12}{'new/base':>10}")
    for metric, (value, unit) in base["metrics"].items():
        other = new["metrics"].get(metric, [float("nan")])[0]
        ratio = other / value if value else float("nan")
        print(f"{metric:<34}{value:>12.6g}{other:>12.6g}{ratio:>10.4f}  {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result document here")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    _environment()
    sys.path.insert(0, str(HERE))
    import spec

    if args.compare:
        return compare(*args.compare)
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.all:
        return run_all(seconds, bool(args.trace))
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)}")
    import workloads

    seed = args.seed if args.seed is not None else workloads.DEFAULT_SEEDS[args.workload]
    if args.probe_setup:
        probe_setup(args.workload, seed)
        return 0
    doc = run_workload(args.workload, seed, seconds, bool(args.trace))
    for problem in doc["problems"]:
        print(problem, file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1))
    summary = {k: doc[k] for k in (
        "units", "unit_s_q1", "unit_s_q3", "failed_frac", "oracle_trials", "checks_failed",
        "wall_unit_s_p50", "wall_items_per_s", "wall_setup_s", "host_factor", "import_s_p50",
        "max_rss_mb", "setup_phases",
    )}
    print(json.dumps({"detail": summary}))
    print(_result_line(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
