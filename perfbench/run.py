"""posetlin benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload chart|extend|rank|corpus --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The inputs and their expected answers are
generated here from the seed, outside the process that serves the requests;
``serve.py`` then answers them in a fresh interpreter that imports posetlin
from ``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits non-zero, without that line, when posetlin
cannot be found or a run breaks.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

from reference import check_extend, check_exact  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SETUP_SPAWNS = 11
# the probe loop's time on a reference host: timings of the loop are also
# reported scaled by it over this run's median probe, which takes the host's
# drift out of them
HOST_REFERENCE_MS = 1.5
# traced runs serve a fixed number of passes, sized so that on the seed code
# the untraced and the traced half each take about half of --seconds
PASSES_PER_SECOND = {"chart": 0.33, "extend": 0.24, "rank": 0.2, "corpus": 4.0}
DEADLINE_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def write_inputs(directory, files, manifest):
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def serving_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup_command(setup):
    if "argv" in setup:
        return [sys.executable, "-m", "posetlin", *setup["argv"]]
    directions = [setup["domain_direction"], setup["codomain_direction"]]
    return [sys.executable, str(HERE / "pipeline.py"), *setup["files"], *directions]


def setup_ok(setup, proc):
    if proc.returncode != 0:
        return False
    if "argv" in setup:
        return check_exact(setup, 0, proc.stdout)
    return check_extend(setup, tuple(json.loads(proc.stdout)))


def time_setup(setup, directory, env, spawns):
    """Seconds each of ``spawns`` fresh interpreters takes to import posetlin
    and answer one trivial request, and whether all answered correctly."""
    command = setup_command(setup)
    times = []
    ok = True
    for _ in range(spawns):
        start = time.perf_counter()
        proc = subprocess.run(
            command, cwd=directory, env=env, capture_output=True, text=True, timeout=60
        )
        times.append(time.perf_counter() - start)
        ok &= setup_ok(setup, proc)
    return times, ok


def percentile(sorted_values, share):
    """Nearest-rank percentile and how many samples lie beyond it."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(report, setup_s):
    """The measured metrics, and the ones ``BENCHMARK.json`` names: the three
    timings of the loop scaled to a host whose probe takes HOST_REFERENCE_MS,
    peak memory and set-up time as measured."""
    latencies = sorted(report["latencies_ms"])
    p90, beyond = percentile(latencies, 0.9)
    measured = {
        "request_p50_ms": (statistics.median(latencies), "ms"),
        "request_p90_ms": (p90, "ms"),
        "requests_per_s": (len(latencies) / report["wall_s"], "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (setup_s, "s"),
    }
    speed = report["calib_ms"] / HOST_REFERENCE_MS
    reported = {
        "request_p50_ms.hostnorm": (measured["request_p50_ms"][0] / speed, "ms"),
        "request_p90_ms.hostnorm": (p90 / speed, "ms"),
        "requests_per_s.hostnorm": (measured["requests_per_s"][0] * speed, "1/s"),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": measured["setup_s"],
    }
    notes = {
        "request_p90_ms": f"{len(latencies)} samples, {beyond} beyond p90"
        + ("" if beyond >= 10 else "; fewer than 10 beyond, run longer"),
    }
    return measured, reported, notes


def per_layer(report):
    metrics = {name: (value, unit_of(name)) for name, value in report["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        report["traced_wall_s"] / report["untraced_wall_s"],
        "ratio",
    )
    metrics["host.calib_ms"] = (report["calib_ms"], "ms")
    return metrics


def unit_of(name):
    return "ms" if name.endswith("_ms") or ".ms." in name else "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "posetlin" / "__init__.py").is_file():
        fail(f"posetlin sources not found under {SRC}")
    began = time.perf_counter()

    files, manifest = build(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        write_inputs(directory, files, manifest)
        env = serving_env()
        # the first spawn may compile bytecode and is not counted; the rest
        # are split around the serving run so that they span its drift
        _, setup_correct = time_setup(manifest["setup"], directory, env, 1)
        setup_times = []
        if not args.trace:
            setup_times, ok = time_setup(manifest["setup"], directory, env, SETUP_SPAWNS // 2)
            setup_correct &= ok
        command = [
            sys.executable,
            str(HERE / "serve.py"),
            "manifest.json",
            "result.json",
            "--seconds",
            str(args.seconds),
        ]
        if args.trace:
            passes = max(1, round(args.seconds * PASSES_PER_SECOND[args.workload] / 2))
            command += ["--trace", "--passes", str(passes)]
        budget = DEADLINE_S - (time.perf_counter() - began)
        try:
            proc = subprocess.run(
                command, cwd=directory, env=env, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            fail(f"serving did not finish within {DEADLINE_S} s")
        if proc.returncode != 0:
            fail(f"serving process exited with {proc.returncode}:\n{proc.stderr}")
        report = json.loads((directory / "result.json").read_text(encoding="utf-8"))
        if not args.trace:
            times, ok = time_setup(
                manifest["setup"], directory, env, SETUP_SPAWNS - len(setup_times)
            )
            setup_times += times
            setup_correct &= ok
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            WORK.rmdir()

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  deck: {len(manifest['deck'])} requests per pass, "
          f"{sum(r['check'] == 'rejected' for r in manifest['deck'])} of them invalid inputs")
    if args.trace:
        printed = metrics = per_layer(report)
        notes = {}
    else:
        measured, metrics, notes = end_to_end(report, statistics.median(setup_times))
        printed = dict(measured, **metrics)
    for name, (value, unit) in printed.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_ratio':44s} {failed / attempted:>14.6g} ratio   ({failed} failed of {attempted} attempted)")
    print(
        f"  {'host.calib_ms':44s} {report['calib_ms']:>14.6g} ms   (median of {report['probes']} probes; "
        f"before {report['calib_before_ms']:.3f}, after {report['calib_after_ms']:.3f}; "
        f"reference {HOST_REFERENCE_MS})"
    )
    if args.trace:
        total = sum(report["layer_self_ms"].values())
        shares = sorted(report["layer_self_ms"].items(), key=lambda kv: -kv[1])
        print("  self-time share by layer: " + ", ".join(
            f"{layer} {ms / total:.1%}" for layer, ms in shares))
    for line in report["failures"]:
        print(f"  FAILED {line}")
    if not setup_correct:
        print("  FAILED set-up request answered wrongly")
    result = {
        "correct": failed == 0 and setup_correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
