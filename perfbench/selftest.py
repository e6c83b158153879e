"""Reduced-size self-test of the benchmark harness.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit on every workload, that a job that raises is counted as failed
without aborting the run, and that an altered trace digest makes the
benchmark exit non-zero.  Jobs use N = 20000 so the whole test takes
about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SMALL = ["--seconds", "0.5", "--nmax", "20000", "--seed", "7"]


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), *args, *SMALL],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2]), proc.stderr


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in (w["name"] for w in spec["workloads"]):
            code, res, _, err = bench("--workload", wl, "--trace", str(trace))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(code == 0 and res["correct"], f"{wl} trace={trace} passes its gates")
            check(got == want, f"{wl} trace={trace} emits every {key} metric "
                               f"with its unit")

    code, res, detail, _ = bench("--workload", "mixed", "--fault", "raise")
    check(code == 0 and res["failed"] >= 1 and res["attempted"] > 1
          and detail["status_counts"].get("raised:TypeError") == 1
          and res["metrics"]["pass_frac"]["value"] < 1.0,
          "a job that raises is counted as failed and the run continues")

    code, res, detail, err = bench("--workload", "shipped", "--fault", "digest")
    check(code != 0 and not res["correct"] and detail["gate_failures"]
          and "gate failed" in err,
          "an altered trace digest makes the command fail")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
