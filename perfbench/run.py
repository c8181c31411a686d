"""Closed-loop benchmark of the mongelab CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 50 --trace 0

One client runs one workload's operation (one `mongelab.cli.main` call,
in this process) again and again, each call starting after the previous
one returns, for about --seconds seconds.  Every operation is timed and
checked: it fails if it raises, writes no report, exits with a code
other than 0, puts an accuracy witness past its tolerance, or writes
report bytes that differ from the run's first operation (same config,
same seed).

--trace 0 prints the end-to-end metrics.  --trace 1 first runs untraced
operations, then wraps the package's public functions (tracer.py) for at
least two traced operations, and prints the per-layer metrics
(layers.py) plus the tracing overhead.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the full record,
with the machine context, goes to .perfbench_out/results/ and the spans
of a traced run to .perfbench_out/spans/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SEED_VARIATION, WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 3     # set-up samples per run: the run's own import plus fresh interpreters
MIN_OPS = 2


@dataclass
class OpRecord:
    index: int
    wall_s: float
    cpu_s: float
    exit_code: int | None
    error: str | None = None            # why the operation failed; None if it passed
    traced: bool = False
    details: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def run_operation(main, argv: list[str], index: int) -> OpRecord:
    """Time one CLI call; an exception is recorded as a failed operation."""
    err = io.StringIO()
    exit_code, error = None, None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            exit_code = main(argv)
    except Exception as exc:  # the operation's failure is the measurement
        error = type(exc).__name__
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if error is None and exit_code != 0:
        # the CLI prints "error: <ExceptionName>: ..." before exiting 4
        text = err.getvalue().strip()
        if text.startswith("error: "):
            error = text[len("error: "):].split(":", 1)[0]
        else:
            error = f"exit {exit_code}"
    rec = OpRecord(index, wall, cpu, exit_code, error)
    if err.getvalue().strip():
        rec.details.append(err.getvalue().strip()[:500])
    return rec


def _read_reports(out: Path, names) -> dict:
    return {name: (out / name).read_bytes() for name in names if (out / name).exists()}


def check_operation(rec: OpRecord, workload, config: dict, out: Path, first: dict | None) -> dict:
    """Apply the output checks; returns the report bytes for the determinism witness."""
    files = _read_reports(out, workload.reports)
    if rec.error is not None:
        return files
    missing = [name for name in workload.reports if name not in files]
    if missing:
        rec.error = "NoReport"
        rec.details.append(f"missing {missing}")
        return files
    try:
        problems = workload.check(out, config)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        rec.error = "BadReport"
        rec.details.append(f"report does not have the expected layout: {exc!r}")
        return files
    if problems:
        rec.error = "WitnessFailed"
        rec.details.extend(problems[:10])
    elif first is not None and files != first:
        rec.error = "NondeterministicReport"
        rec.details.append("report bytes differ from the first operation's")
    return files


def percentile_summary(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "samples": n}
    if n > 10:
        pct = 100.0 * (n - 10) / n
        ordered = sorted(values)
        out[f"p{pct:.0f}"] = ordered[n - 11]
    return out


# -- context ---------------------------------------------------------------------
def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _blas_threads() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    import ctypes

    import numpy

    info: dict = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except Exception as exc:  # best-effort record
        info["config_error"] = type(exc).__name__
    info["env"] = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "blas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = os.path.basename(lib)
                return info
    return info


def _source_revision(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mongelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = {"src_sha256": digest.hexdigest()}
    if (root / ".git").exists():
        try:
            rev["git"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                        capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    rev.setdefault("git", None)
    return rev


def machine_context(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_threads(),
        "platform": platform.platform(),
        "revision": _source_revision(root),
    }


# -- set-up ------------------------------------------------------------------------
def write_config(workload, seed: int, run_dir: Path) -> tuple[dict, Path]:
    config = workload.make_config(seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "config.json"
    path.write_text(json.dumps(config, indent=1))
    return config, path


def timed_setup(root: Path, workload, seed: int, run_dir: Path) -> tuple[float, dict, Path]:
    """Import the package and generate the workload's config; returns the seconds taken."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import mongelab.cli  # noqa: F401

    config, path = write_config(workload, seed, run_dir)
    return time.perf_counter() - t0, config, path


def measure_setup(root: Path, workload_name: str, seed: int) -> list[float]:
    """Set-up seconds in fresh interpreters, SETUP_PROBES - 1 of them."""
    samples = []
    for _ in range(SETUP_PROBES - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload_name,
             "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# -- the closed loop --------------------------------------------------------------
def closed_loop(main, workload, config, config_path, run_dir, seconds, start_index,
                first_reports, min_ops=MIN_OPS, tracer=None) -> tuple[list[OpRecord], dict]:
    """Run operations until another one would overrun `seconds`."""
    records: list[OpRecord] = []
    t0 = time.perf_counter()
    while True:
        index = start_index + len(records)
        out = run_dir / f"op-{index}"
        argv = workload.argv(config_path, out)
        if tracer is not None:
            root = tracer.begin_operation(index, f"cli.main:{workload.command}")
            rec = run_operation(main, argv, index)
            tracer.end_operation(root, error=rec.error)
            rec.traced = True
        else:
            rec = run_operation(main, argv, index)
        files = check_operation(rec, workload, config, out, first_reports)
        if first_reports is None and rec.ok:
            first_reports = files
        shutil.rmtree(out, ignore_errors=True)
        records.append(rec)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r.wall_s for r in records)
        if len(records) >= min_ops and elapsed + typical > seconds:
            return records, first_reports


def end_to_end(records: list[OpRecord], setup: list[float]) -> dict:
    walls = [r.wall_s for r in records]
    ok = sum(1 for r in records if r.ok)
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(r.cpu_s for r in records), "unit": "s"},
        "ok_ops_per_min": {"value": 60.0 * ok / sum(walls), "unit": "1/min"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


def traced_metrics(tracer, records: list[OpRecord], untraced: list[OpRecord], workload):
    """Per-layer metrics: counts from the first traced operation, times as medians."""
    from layers import COUNT_METRICS, DETERMINISTIC, RATIO_METRICS, TIME_METRICS, \
        as_percentages, operation_metrics

    by_op: dict[int, list] = {}
    for span in tracer.spans:
        by_op.setdefault(span.op, []).append(span)
    per_op = [operation_metrics(by_op[r.index], workload.threads) for r in records]
    pcts = [as_percentages(m) for m in per_op]
    first = per_op[0]
    for rec, m in zip(records[1:], per_op[1:]):
        drift = {k: (first[k], m[k]) for k in DETERMINISTIC if m[k] != first[k]}
        if drift and rec.ok:
            rec.error = "NondeterministicCounts"
            rec.details.append(f"counts differ from the first traced operation: {drift}")
    metrics = {name: {"value": float(statistics.median(p[name] for p in pcts)), "unit": "%"}
               for name in pcts[0]}
    for name in COUNT_METRICS:
        metrics[name] = {"value": first[name], "unit": "count"}
    for name in RATIO_METRICS:
        metrics[name] = {"value": float(first[name]), "unit": "ratio"}
    traced_wall = statistics.median(r.wall_s for r in records)
    plain_wall = statistics.median(r.wall_s for r in untraced)
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced_wall / plain_wall - 1.0),
                                     "unit": "%"}
    shape = sum(metrics[f"{layer}.self_pct"]["value"] for layer in workload.shape_layers)
    seconds = {name: float(statistics.median(m[name] for m in per_op))
               for name in TIME_METRICS + ("wall_s", "busy_s")}
    return metrics, {"per_operation": per_op, "seconds_median": seconds,
                     "shape_layers": list(workload.shape_layers), "shape_self_pct": shape,
                     "shape_holds": shape >= 50.0}


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.id, s.op, s.name, s.start, s.end, s.parent, s.error,
                                 s.info]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mongelab" / "__init__.py").is_file():
        print("perfbench: src/mongelab not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        probe_dir = root / OUT_DIR / f"probe-{os.getpid()}"
        print(repr(timed_setup(root, workload, args.seed, probe_dir)[0]))
        shutil.rmtree(probe_dir, ignore_errors=True)
        return 0

    load_start = _loadavg()
    setup = measure_setup(root, workload.name, args.seed)
    run_dir = root / OUT_DIR / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    own_setup, config, config_path = timed_setup(root, workload, args.seed, run_dir)
    setup.append(own_setup)
    import mongelab
    import mongelab.cli

    if not Path(mongelab.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"perfbench: imported {mongelab.__file__}, not the checkout's src/",
              file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2
    from tracer import Tracer, find_wrappers

    context = machine_context(root)
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} command={workload.command} threads={workload.threads}")
    print(f"context nproc={context['nproc']} python={context['python']} "
          f"numpy={context['numpy']} scipy={context['scipy']} blas={context['blas']} "
          f"src={context['revision']['src_sha256'][:12]} git={context['revision']['git']} "
          f"loadavg={load_start}")

    try:
        # one untimed operation first: lazy imports, BLAS threads and allocator pools
        # settle before timing; it is checked and counted like every other operation
        warmup, first = closed_loop(mongelab.cli.main, workload, config, config_path, run_dir,
                                    0.0, 0, None, min_ops=1)
        if args.trace == 0:
            records, _ = closed_loop(mongelab.cli.main, workload, config, config_path, run_dir,
                                     args.seconds, 1, first)
            metrics = end_to_end(records, setup)
            layer_detail = None
        else:
            untraced, first = closed_loop(mongelab.cli.main, workload, config, config_path,
                                          run_dir, args.seconds / 3.0, 1, first, min_ops=1)
            tracer = Tracer()
            with tracer:
                traced, _ = closed_loop(mongelab.cli.main, workload, config, config_path,
                                        run_dir, args.seconds * 2.0 / 3.0, 1 + len(untraced),
                                        first, min_ops=2, tracer=tracer)
            if find_wrappers():
                raise RuntimeError("tracing wrappers left installed after the traced run")
            metrics, layer_detail = traced_metrics(tracer, traced, untraced, workload)
            write_spans(tracer, root / OUT_DIR / "spans" / f"{workload.name}.jsonl")
            records = untraced + traced
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = records
    records = warmup + records
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    for r in records:
        status = "ok" if r.ok else f"FAILED {r.error}"
        kind = " warm-up" if r.index == 0 else " traced" if r.traced else ""
        print(f"op {r.index}{kind}: wall={r.wall_s:.4f} s "
              f"cpu={r.cpu_s:.4f} s exit={r.exit_code} {status}")
        for line in r.details:
            print(f"    {line}")
    walls = percentile_summary([r.wall_s for r in timed if not r.traced])
    print(f"wall_s summary: {walls}")
    print(f"failed_share: {failed / attempted:.4f} ({failed} of {attempted} operations)")
    errors: dict = {}
    for r in records:
        if r.error:
            errors[r.error] = errors.get(r.error, 0) + 1
    if errors:
        print(f"errors: {errors}")
    print(f"setup_s samples: {[round(s, 4) for s in setup]}")
    if layer_detail is not None:
        holds = "holds" if layer_detail["shape_holds"] else "CONTRADICTED"
        print(f"shape {holds}: {'+'.join(workload.shape_layers)} self time = "
              f"{layer_detail['shape_self_pct']:.1f} % of busy time")
        for name, value in sorted(layer_detail["seconds_median"].items()):
            print(f"  {name} = {value:.6f} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    load_end = _loadavg()
    print(f"loadavg start={load_start} end={load_end}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {**result, "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "config": config,
              "seed_variation": SEED_VARIATION.get(workload.name),
              "failed_share": failed / attempted, "errors": errors,
              "wall_s_summary": walls, "setup_s_samples": setup,
              "context": {**context, "loadavg_start": load_start, "loadavg_end": load_end},
              "operations": [asdict(r) for r in records], "layers": layer_detail}
    result_path = root / OUT_DIR / "results" / \
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
