"""Serve one workload's requests in a closed loop and report what was seen.

One client, one thread: each request starts when the previous one returned.
CLI requests call ``posetlin.cli.main(argv)`` in this process with stdout and
stderr captured; ``extend`` requests run the library pipeline.  Usage, from
the directory that holds the manifest's input files, with posetlin
importable::

    python3 serve.py MANIFEST RESULT --seconds S [--passes P --trace]

Without ``--trace`` the loop runs whole passes over the deck until S seconds
have passed.  With ``--trace`` it runs P passes untraced and P passes with
spans installed, alternating, so both the totals and the overhead ratio are
taken over a fixed amount of work.  In both modes a fixed probe loop runs
before, between requests and after, and its median time is reported as the
host's speed.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import time

import posetlin.cli

import pipeline
from reference import CHECKS, check_extend
from tracing import Tracer

CALIBRATION_ROUNDS = 5
PROBE_EVERY_S = 0.1
WARM_UP_S = 1.0


def calibrate():
    """Seconds a fixed pure-Python loop takes: the host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


class Server:
    def __init__(self, deck):
        self.deck = deck
        self.attempted = 0
        self.failed = 0
        self.failures = []
        # deck index -> an output already found correct; a repeat of the same
        # output for the same input needs no second semantic check
        self.verified = {}
        # host-speed probes: run before, between requests (at most every
        # PROBE_EVERY_S) and after; their time is kept out of every wall time
        self.probes = []
        self.probe_s = 0.0
        self.last_probe = 0.0

    def probe(self):
        took = calibrate()
        self.probes.append(took)
        self.probe_s += took
        self.last_probe = time.perf_counter()

    def answer(self, request):
        if request["kind"] == "extend":
            files = request["files"]
            return 0, pipeline.run(
                *files, request["domain_direction"], request["codomain_direction"]
            )
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = posetlin.cli.main(request["argv"])
        return code, out.getvalue()

    def check(self, index, code, result):
        request = self.deck[index]
        if request["kind"] == "extend":
            return check_extend(request, result)
        if request["check"] == "witness":
            if self.verified.get(index) == result and code == 0:
                return True
            ok = CHECKS["witness"](request, code, result)
            if ok:
                self.verified[index] = result
            return ok
        return CHECKS[request["check"]](request, code, result)

    def one(self, index):
        """Serve deck[index]; return its latency in seconds."""
        clock = time.perf_counter
        start = clock()
        try:
            code, result = self.answer(self.deck[index])
        except Exception as exc:  # a crash is a failed request, not a dead loop
            end = clock()
            code, result = None, f"{type(exc).__name__}: {exc}"
        else:
            end = clock()
        self.attempted += 1
        if code is None or not self.check(index, code, result):
            self.failed += 1
            if len(self.failures) < 5:
                request = self.deck[index]
                label = request.get("argv") or request.get("files")
                self.failures.append(f"{label}: exit {code}: {str(result)[:200]}")
        return end - start

    def one_pass(self, on_request=None):
        """Serve every deck request once; return (latencies, wall seconds)."""
        latencies = []
        start, probed = time.perf_counter(), self.probe_s
        for index in range(len(self.deck)):
            if on_request is not None:
                on_request(index)
            latencies.append(self.one(index))
            if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
                self.probe()
        return latencies, time.perf_counter() - start - (self.probe_s - probed)

    def for_seconds(self, seconds):
        """Whole passes until ``seconds`` have gone; return (latencies, wall)."""
        latencies = []
        wall = 0.0
        while wall < seconds:
            served, took = self.one_pass()
            latencies += served
            wall += took
        return latencies, wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    server = Server(manifest["deck"])
    for _ in range(CALIBRATION_ROUNDS):
        server.probe()
    # warm-up, untimed but checked: deck requests until a second has gone
    warm_until = time.perf_counter() + WARM_UP_S
    for index in range(len(server.deck)):
        if time.perf_counter() >= warm_until:
            break
        server.one(index)
    report = {}
    if args.trace:
        tracer = Tracer()

        def mark(index):
            tracer.request = (len(tracer.spans), index)

        def timed_pass(traced):
            if traced:
                tracer.install()
            try:
                return server.one_pass(mark if traced else None)[1]
            finally:
                if traced:
                    tracer.uninstall()

        # untraced and traced passes alternate, each going first in turn, so
        # that host drift weighs on both sides of the overhead ratio alike
        walls = {False: 0.0, True: 0.0}
        for turn in range(args.passes):
            for traced in (bool(turn % 2), not turn % 2):
                walls[traced] += timed_pass(traced)
        layer_metrics, layer_ms = tracer.metrics()
        report["layers"] = layer_metrics
        report["layer_self_ms"] = layer_ms
        report["traced_wall_s"] = walls[True]
        report["untraced_wall_s"] = walls[False]
    else:
        latencies, wall = server.for_seconds(args.seconds)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["latencies_ms"] = [s * 1e3 for s in latencies]
        report["wall_s"] = wall
    for _ in range(CALIBRATION_ROUNDS):
        server.probe()
    probes_ms = [took * 1e3 for took in server.probes]
    report["calib_ms"] = statistics.median(probes_ms)
    report["calib_before_ms"] = statistics.median(probes_ms[:CALIBRATION_ROUNDS])
    report["calib_after_ms"] = statistics.median(probes_ms[-CALIBRATION_ROUNDS:])
    report["probes"] = len(probes_ms)
    report["attempted"] = server.attempted
    report["failed"] = server.failed
    report["failures"] = server.failures
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
