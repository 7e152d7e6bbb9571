"""Record the CSV digests that the enumeration workloads check against.

    python3 bench/record_digests.py

Runs ``weillab enumerate --format csv`` over every range the seed can
pick (see inputs.enum_range) with the checkout's ``src/weillab`` and
writes bench/digests.json.  Run it again only at a commit that changes
the output bytes on purpose.  It refuses to write a table whose
q <= 10^4 digest differs from the one ROADMAP.md records.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import inputs
import run as bench


def main() -> int:
    os.makedirs(os.path.join(bench.ROOT, ".bench_work"), exist_ok=True)
    recorder = bench.Run(tempfile.mkdtemp(prefix="digests-", dir=os.path.join(bench.ROOT, ".bench_work")))
    digests = {}
    try:
        for workload, ranges in inputs.all_enum_ranges().items():
            for q_min, q_max in ranges:
                output = recorder.path("records.csv")
                argv = bench.python("-m", "weillab", *bench.enumerate_argv(q_min, q_max, bench.JOBS[workload], output))
                code, wall, _ = recorder.child(argv, recorder.path("cli.out"), recorder.path("cli.err"))
                if code != 0:
                    raise SystemExit(f"enumerate {q_min}..{q_max} exited with {code}")
                sha256, records = bench.csv_digest(output)
                digests[f"{q_min}..{q_max}"] = {"sha256": sha256, "records": records}
                print(f"{workload} {q_min}..{q_max}: {records} records in {wall:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(recorder.workdir, ignore_errors=True)
    if digests["2..10000"]["sha256"] != bench.ROADMAP_Q1E4_SHA256:
        raise SystemExit("the q <= 10^4 digest differs from ROADMAP's; digests.json left unchanged")
    with open(bench.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
