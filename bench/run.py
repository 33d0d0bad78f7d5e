"""End-to-end benchmark of the ddradar command line, with an optional traced run.

    python3 bench/run.py --workload sim-rect --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

Run from the root of a source checkout: the package is imported from its
`src/` directory and nowhere else.  One process, one closed-loop client:
each `ddradar.cli.main(argv)` call starts after the previous one returned.
BLAS, OpenMP and ddradar worker threads are pinned to 1 before numpy loads.

Set-up makes SETUP_ROUNDS untimed gate commands, each checked against the
oracle in bench/oracle.py; any failure there stops the run with exit code 3
before anything is timed.  Then commands run for --seconds, each timed from
argv until main returns, and each checked afterwards, outside the timed
interval.  The last stdout line is one JSON object: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer ones.  Exit code 2 means the
package could not be imported from the checkout.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DDRADAR_THREADS")
WORKLOAD_NAMES = ("sim-rect", "sim-chirp", "sim-transported", "amb-transformed")
SETUP_ROUNDS = 3
CHILD_TIMEOUT_S = 600


def _environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        pass
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def _import_cli():
    """ddradar.cli from the checkout's src/, or None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        from ddradar import cli
    except ImportError:
        return None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        return None
    return cli


def _run_command(cli, argv: list, outdir: Path) -> tuple:
    """One CLI call: (exit code, seconds, captured stderr).  Outputs and garbage
    of the previous command are cleared first, outside the timed interval."""
    shutil.rmtree(outdir, ignore_errors=True)
    gc.collect()
    sink_out, sink_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
        start = time.perf_counter()
        try:
            code = cli.main(argv + ["--out", str(outdir)])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, seconds, sink_err.getvalue()


def _attempt(cli, case, outdir: Path, workloads) -> tuple:
    """Run and check one command: (seconds, list of problems)."""
    code, seconds, err = _run_command(cli, case.argv, outdir)
    if code != 0:
        return seconds, [f"exit code {code}: {err.strip()[-500:]}"]
    return seconds, workloads.check_outputs(case, outdir)


def _tail(times: list) -> str:
    """The highest whole percentile with at least ten commands beyond it."""
    n = len(times)
    if n <= 10:
        return f"tail percentile: none (needs more than 10 commands, have {n})"
    p = int(100 * (1 - 10 / n))
    value = statistics.quantiles(times, n=100)[p - 1]
    return f"tail percentile: p{p} = {value:.6f} s over {n} commands"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np

    import tracing
    import workloads

    cli = _import_cli()
    if cli is None:
        print(f"error: cannot import ddradar from {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    env = _environment()
    print(f"# env: {json.dumps(env, sort_keys=True)}")

    make_case = workloads.WORKLOADS[name]
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    outdir = workdir / "out"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    try:
        rounds = []
        for i in range(SETUP_ROUNDS):
            start = time.perf_counter()
            case = make_case(rng, workdir)
            _, problems = _attempt(cli, case, outdir, workloads)
            if problems:
                print(f"error: oracle gate failed on set-up command {i}: {problems[:5]}", file=sys.stderr)
                return 3
            rounds.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(rounds)

        tracer = tracing.Tracer()
        times, traced_times, csv_sizes = [], [], {}
        failed = 0
        begin = time.perf_counter()
        command = 0
        while command == 0 or time.perf_counter() - begin < seconds:
            case = make_case(rng, workdir)
            # The traced run alternates traced and plain commands, so the
            # difference of their medians is the tracing overhead.
            traced = trace and command % 2 == 0
            if traced:
                tracer.install(command)
            try:
                elapsed, problems = _attempt(cli, case, outdir, workloads)
            finally:
                tracer.uninstall()
            if problems:
                failed += 1
                print(f"# command {command} failed: {problems[:5]}")
            if traced:
                traced_times.append(elapsed)
                csv_sizes[command] = workloads.csv_bytes(case, outdir) if not problems else 0
            else:
                times.append(elapsed)
            command += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = command
    print(f"# {name}: {attempted} commands, {failed} failed, failed_ratio = {failed / attempted:.6g}")
    if trace:
        traced_ids = sorted(csv_sizes)
        metrics = tracer.layer_metrics(traced_ids, csv_sizes, name.startswith("sim-"))
        traced_median = statistics.median(traced_times)
        metrics["trace.cmd_median_s"] = traced_median
        metrics["trace.overhead_s"] = traced_median - statistics.median(times) if times else 0.0
        units = tracing.metric_units()
        spans = WORK / f"spans-{name}-{seed}.json"
        spans.write_text(
            json.dumps({"workload": name, "seed": seed, "env": env, "spans": tracer.span_records()}),
            encoding="ascii",
        )
        print(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        print(f"# command seconds: {' '.join(f'{t:.4f}' for t in times)}")
        print(f"# {_tail(times)}")
        print(f"# set-up rounds: {' '.join(f'{t:.4f}' for t in rounds)}; imports {import_s:.4f} s")
        metrics = {
            "cmd_median_s": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = {"cmd_median_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so each peak RSS is that workload's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:16s} {metric:45s} {entry['value']:>16.6f} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed interval per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
