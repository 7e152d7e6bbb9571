"""Child process of the weillab benchmark; the only process that imports weillab.

    worker.py stream REQUESTS OUT [--trace]
        One closed-loop client makes the in-process library calls of a
        request file (see inputs.stream_requests) one after another,
        times each call in thread CPU time and checks each result.  It
        writes a JSON summary to OUT and the latencies, as native int64
        nanoseconds, to OUT.lat.
    worker.py cli OUT -- ARGS...
        Runs ``weillab.cli.main(ARGS)`` with every layer traced and writes
        the trace report; the exit code is the CLI's.

The weillab package must be the one under ``src`` of the checkout that
holds this file; run.py puts it on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import thread_time_ns

import inputs
import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_weillab():
    import weillab

    src = os.path.join(ROOT, "src", "weillab")
    if os.path.dirname(os.path.abspath(weillab.__file__)) != src:
        raise SystemExit(f"worker: imported weillab from {weillab.__file__}, expected {src}")
    return weillab


def _trace_report(tracer: tracing.Tracer, weillab) -> dict:
    report = tracer.report()
    report["prime_power_hit_ratio"] = tracing.cache_hit_ratio(weillab.core.prime_power_decomposition)
    return report


def _check_record(request: dict, line: str) -> str | None:
    """Why a record request's JSON line is wrong, or None."""
    obj = json.loads(line)
    q, a, b = request["q"], request["a"], request["b"]
    label = inputs.encode_label(q, a, b)
    if (obj["q"], obj["a"], obj["b"]) != (q, a, b):
        return f"record is for ({obj['q']}, {obj['a']}, {obj['b']})"
    if [obj["p"], obj["r"]] != request["pr"]:
        return f"record has (p, r) = ({obj['p']}, {obj['r']})"
    if obj["label"] != label or inputs.decode_label(obj["label"]) != (q, a, b):
        return f"label {obj['label']!r} does not round-trip to ({q}, {a}, {b})"
    if obj["class_kind"] != request["class_kind"]:
        return f"class_kind {obj['class_kind']} != expected {request['class_kind']}"
    return None


def run_stream(requests_path: str, out_path: str, trace: bool) -> int:
    weillab = _import_weillab()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    documented = (weillab.NotPrimePower, weillab.NotWeil, weillab.MalformedLabel)
    # names are looked up on the package at call time, so traced runs see the wrappers
    records_module = weillab.records

    latencies = array("q")
    failed = 0
    failures: list[str] = []
    with open(requests_path, encoding="utf-8") as handle:
        # read one request at a time, so the worker's peak RSS is weillab's, not the request list's
        for request in map(json.loads, handle):
            kind = request["kind"]
            result = error = None
            t0 = thread_time_ns()
            try:
                if kind == "make":
                    f = weillab.make_weil_quartic(request["q"], request["a"], request["b"])
                    result = records_module.to_json_line(weillab.build_record(f))
                elif kind == "label":
                    result = records_module.to_json_line(weillab.build_record(weillab.parse_label(request["label"])))
                elif kind == "decode":
                    result = weillab.parse_label(request["label"])
                else:
                    result = weillab.non_pp_bounds(request["q"], request["b"])
            except Exception as exc:  # checked below: only documented errors may pass
                error = exc
            elapsed = thread_time_ns() - t0
            latencies.append(elapsed)

            problem = None
            expected_error = request.get("error")
            if error is not None:
                if type(error).__name__ != expected_error or not isinstance(error, documented):
                    problem = f"raised {type(error).__name__}: {error}"
            elif expected_error is not None:
                problem = f"expected {expected_error}, got a result"
            elif kind in ("make", "label"):
                problem = _check_record(request, result)
            elif kind == "decode":
                got = (result.q, result.a, result.b, result.p, result.r)
                if got != (request["q"], request["a"], request["b"], *request["pr"]):
                    problem = f"decoded {got}"
            elif (result.lo, result.hi) != (request["lo"], request["hi"]):
                problem = f"interval [{result.lo}, {result.hi}] != [{request['lo']}, {request['hi']}]"
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{request}: {problem}")

    summary = {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "trace": _trace_report(tracer, weillab) if tracer else None,
    }
    with open(out_path + ".lat", "wb") as handle:
        latencies.tofile(handle)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


def run_cli(out_path: str, argv: list[str]) -> int:
    weillab = _import_weillab()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = weillab.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(_trace_report(tracer, weillab), handle)
    return code


def main(argv: list[str]) -> int:
    if len(argv) >= 3 and argv[0] == "stream":
        return run_stream(argv[1], argv[2], "--trace" in argv[3:])
    if len(argv) >= 3 and argv[0] == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
