"""Benchmark of weillab, driven from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/weillab``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  Workloads and metrics are described in bench/README.md.
This process never imports weillab; children do.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from array import array
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("enum_wide", "enum_high_band", "classify_stream")
# both enumerations run one job: under steal on a shared 2-vCPU VM the
# two-thread pool of --jobs 2 ran 25% slower while interleaved --jobs 1 calls
# held their time, which made the band's figures swing up to 2x between runs
JOBS = 1
MIN_REPEATS = 3
SETUP_REPEATS = 15
# the stream's rates are medians over chunks of this many consecutive requests,
# so a few requests stalled by the host do not move them
STREAM_CHUNK = 1000
CHILD_TIMEOUT_S = 150
DIGESTS = os.path.join(BENCH, "digests.json")
# ROADMAP's sha256 of `enumerate --q-min 2 --q-max 10000 --format csv`
ROADMAP_Q1E4_SHA256 = "ed97c4a8acaf9fc574d21d841ac17490c07c907e9d46d6aeacb02d0046c54cf3"

SPEC = os.path.join(ROOT, "BENCHMARK.json")


class Run:
    """Work directory, child environment and outcome counts of one benchmark run."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # host-speed sampler of an untraced run; traced runs report raw times
        self.speed: calibrate.HostSpeed | None = None
        self.slowdowns: list[float] = []
        self.child_slowdown = 1.0

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def outcome(self, failed: int, what: str, attempted: int = 1) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 10:
            self.failures.append(what)

    def child(self, argv: list[str], stdout: str, stderr: str) -> tuple[int, float, float]:
        """Run one child process to completion: (exit code, seconds, peak RSS MB).

        Without a host-speed sampler the seconds are wall time.  With one
        they are the child's CPU time (user + system, from os.wait4) scaled
        to the reference host speed (see calibrate.py), and
        ``child_slowdown`` holds the factor.  Each child is single-threaded,
        so on an idle host of the reference speed the two agree.
        The peak RSS is the child's own, read from os.wait4; the
        RUSAGE_CHILDREN maximum would carry over from earlier children.
        """
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            reaped = threading.Event()

            def watchdog() -> None:
                if not reaped.wait(CHILD_TIMEOUT_S):
                    proc.kill()

            guard = threading.Thread(target=watchdog, daemon=True)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                reaped.set()
                guard.join()
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024
        if not self.speed:
            return proc.returncode, end - start, rss_mb
        self.child_slowdown = self.speed.slowdown(start, end)
        self.slowdowns.append(self.child_slowdown)
        return proc.returncode, (usage.ru_utime + usage.ru_stime) / self.child_slowdown, rss_mb


def percentile(values: list[float], share: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def repeat(seconds: float, once) -> list:
    """Call ``once`` at least MIN_REPEATS times, then while the next call fits in ``seconds``."""
    start = perf_counter()
    results = []
    while True:
        t0 = perf_counter()
        results.append(once())
        last = perf_counter() - t0
        if len(results) >= MIN_REPEATS and perf_counter() - start + last > seconds:
            return results


def python(*args: str) -> list[str]:
    return [sys.executable, "-s", *args]


def check_entered(run: Run, report: dict, mode: str) -> None:
    """Count a traced run that skipped a span it must enter as failed: its metrics would read 0."""
    missing = tracer.unentered(report, mode)
    run.outcome(1 if missing else 0, f"traced run never entered {', '.join(missing)}")


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(run: Run, seed: int, arithmetic: inputs.Arithmetic) -> float:
    """Median time (see Run.child) of a fresh ``python -m weillab`` answering a label query.

    One untimed call first compiles the package's bytecode, which users
    pay once per install, not per call.
    """
    encode_arg, expected = inputs.setup_query(seed, arithmetic)
    argv = python("-m", "weillab", "label", "--encode", encode_arg)
    times = []
    for i in range(SETUP_REPEATS + 1):
        code, seconds, _ = run.child(argv, run.path("setup.out"), run.path("setup.err"))
        with open(run.path("setup.out"), encoding="utf-8") as handle:
            ok = code == 0 and handle.read() == expected + "\n"
        run.outcome(0 if ok else 1, f"setup: label --encode {encode_arg} exit {code}")
        if i:
            times.append(seconds)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# enumeration workloads


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    if digests["2..10000"]["sha256"] != ROADMAP_Q1E4_SHA256:
        raise SystemExit(f"{DIGESTS}: the q <= 10^4 digest differs from ROADMAP's")
    return digests


def enumerate_argv(q_min: int, q_max: int, jobs: int, output: str) -> list[str]:
    return ["enumerate", "--q-min", str(q_min), "--q-max", str(q_max), "--format", "csv", "--output", output, "--jobs", str(jobs)]


def csv_digest(path: str) -> tuple[str, int]:
    """(sha256, records) of a CSV output file, which is then removed; ("", 0) if absent."""
    if not os.path.exists(path):
        return "", 0
    digest = hashlib.sha256()
    lines = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    os.remove(path)
    return digest.hexdigest(), max(lines - 1, 0)


def check_csv(run: Run, path: str, code: int, expected: dict, what: str) -> int:
    """Record the outcome of one CLI enumeration; return the records written."""
    sha256, records = csv_digest(path)
    ok = code == 0 and sha256 == expected["sha256"] and records == expected["records"]
    run.outcome(0 if ok else 1, f"{what}: exit {code}, sha256 {sha256}, {records} records")
    return records


def enumeration(run: Run, workload: str, seed: int, seconds: float, trace: bool) -> dict[str, float]:
    q_min, q_max = inputs.enum_range(workload, seed)
    jobs = JOBS
    expected = load_digests()[f"{q_min}..{q_max}"]
    output = run.path("records.csv")
    argv = enumerate_argv(q_min, q_max, jobs, output)
    what = f"enumerate {q_min}..{q_max} --jobs {jobs}"

    def once() -> tuple[float, float, int]:
        code, seconds, rss = run.child(python("-m", "weillab", *argv), run.path("cli.out"), run.path("cli.err"))
        return seconds, rss, check_csv(run, output, code, expected, what)

    if trace:
        untraced_wall, _, _ = once()
        report_path = run.path("trace.json")
        code, traced_wall, _ = run.child(
            python(os.path.join(BENCH, "worker.py"), "cli", report_path, "--", *argv), run.path("cli.out"), run.path("cli.err")
        )
        check_csv(run, output, code, expected, f"traced {what}")
        if not os.path.exists(report_path):
            with open(run.path("cli.err"), encoding="utf-8", errors="replace") as handle:
                raise SystemExit(f"traced CLI exited with {code} and no trace report:\n{handle.read()}")
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        check_entered(run, report, "cli")
        return tracer.layer_metrics(report, jobs, traced_wall - untraced_wall)

    arithmetic = inputs.Arithmetic()
    setup_s = measure_setup(run, seed, arithmetic)
    samples = repeat(seconds, once)
    times = [seconds for seconds, _, _ in samples]
    return {
        "records_per_s": statistics.median(records / seconds for seconds, _, records in samples),
        "queries_per_s": 1 / statistics.median(times),
        "query_p50_us": statistics.median(times) * 1e6,
        "query_p99_us": percentile(times, 0.99) * 1e6,
        "peak_rss_mb": statistics.median(rss for _, rss, _ in samples),
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------
# single-class stream


def stream_pass(run: Run, requests_path: str, trace: bool) -> tuple[dict, float]:
    """One stream worker over the request file: (summary, peak RSS MB).

    The summary's ``latencies_ns`` are scaled to the reference host speed
    by the pass's slowdown when the run samples it.
    """
    out = run.path("stream.json")
    argv = python(os.path.join(BENCH, "worker.py"), "stream", requests_path, out, *(["--trace"] if trace else []))
    code, _, rss = run.child(argv, run.path("worker.out"), run.path("worker.err"))
    if code != 0 or not os.path.exists(out):
        with open(run.path("worker.err"), encoding="utf-8", errors="replace") as handle:
            raise SystemExit(f"stream worker exited with {code}:\n{handle.read()}")
    with open(out, encoding="utf-8") as handle:
        summary = json.load(handle)
    latencies = array("q")
    with open(out + ".lat", "rb") as handle:
        latencies.frombytes(handle.read())
    summary["latencies_ns"] = [ns / run.child_slowdown for ns in latencies]
    os.remove(out)
    os.remove(out + ".lat")
    run.outcome(summary["failed"], "; ".join(summary["failures"]), summary["attempted"])
    return summary, rss


def classify_stream(run: Run, seed: int, seconds: float, trace: bool) -> dict[str, float]:
    arithmetic = inputs.Arithmetic()
    requests_path = run.path("requests.jsonl")
    is_record = []
    with open(requests_path, "w", encoding="utf-8") as handle:
        for request in inputs.stream_requests(seed, arithmetic):
            handle.write(json.dumps(request) + "\n")
            is_record.append(request["kind"] in ("make", "label") and "error" not in request)

    if trace:
        untraced, _ = stream_pass(run, requests_path, trace=False)
        traced, _ = stream_pass(run, requests_path, trace=True)
        overhead_s = (sum(traced["latencies_ns"]) - sum(untraced["latencies_ns"])) / 1e9
        check_entered(run, traced["trace"], "stream")
        return tracer.layer_metrics(traced["trace"], 1, overhead_s)

    setup_s = measure_setup(run, seed, arithmetic)
    passes = repeat(seconds, lambda: stream_pass(run, requests_path, trace=False))
    query_rates, record_rates = [], []
    for summary, _ in passes:
        latencies = summary["latencies_ns"]
        for start in range(0, len(latencies), STREAM_CHUNK):
            chunk = range(start, min(start + STREAM_CHUNK, len(latencies)))
            query_rates.append(len(chunk) / (sum(latencies[i] for i in chunk) / 1e9))
            record_ns = [latencies[i] for i in chunk if is_record[i]]
            record_rates.append(len(record_ns) / (sum(record_ns) / 1e9))
    latencies_us = [ns / 1e3 for summary, _ in passes for ns in summary["latencies_ns"]]
    return {
        "records_per_s": statistics.median(record_rates),
        "queries_per_s": statistics.median(query_rates),
        "query_p50_us": percentile(latencies_us, 0.50),
        "query_p99_us": percentile(latencies_us, 0.99),
        "peak_rss_mb": statistics.median(rss for _, rss in passes),
        "setup_s": setup_s,
    }


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and reaps its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "weillab", "__init__.py")):
        print(f"error: no weillab package under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    run = Run(tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work")))
    try:
        with contextlib.ExitStack() as stack:
            if not args.trace:
                run.speed = stack.enter_context(calibrate.HostSpeed())
            if args.workload == "classify_stream":
                values = classify_stream(run, args.seed, args.seconds, bool(args.trace))
            else:
                values = enumeration(run, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    with open(SPEC, encoding="utf-8") as handle:
        metrics = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: attempted={run.attempted} failed={run.failed} "
        f"failed_frac={run.failed / max(run.attempted, 1):.6f}",
        file=sys.stderr,
    )
    if run.speed:
        print(
            f"  host slowdown over {len(run.slowdowns)} calls: median {statistics.median(run.slowdowns):.4f}, "
            f"range {min(run.slowdowns):.4f}..{max(run.slowdowns):.4f}",
            file=sys.stderr,
        )
    for failure in run.failures:
        print(f"  failure: {failure}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
