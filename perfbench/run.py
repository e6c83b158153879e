"""End-to-end benchmark of the torusavg command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {shipped,mixed,predict} --seed N \
        --seconds S --trace {0,1}

Each job is one in-process ``torusavg.cli.main([...])`` call (``run`` or
``predict``) on a scenario file generated from the seed; one client sends
jobs one after another (closed loop).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each job untraced and then with layer spans
installed (see spans.py), and prints the per-layer metrics.  Correctness gates run on
every invocation and make the command exit 1 when they fail.

The last line of standard output is the result object; the line before it
is a detail record (machine, digests, tail percentile, failure breakdown).
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import reference
import scenarios
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 7
REPEAT_CHECK = 6
# Reference kernel copies per workload (see reference.py); 0 reports raw
# wall time.  `mixed` is raw: no kernel tried tracked its memory-bound,
# page-faulting blocks better than raw time did.
REFERENCE_THREADS = {"shipped": 2, "mixed": 0, "predict": 1}
SETUP_CODE = ("import time; t = time.perf_counter(); import torusavg.cli; "
              "print(repr(time.perf_counter() - t))")


@dataclass
class Job:
    jid: int
    name: str
    argv: list[str]
    n_max: int


@dataclass
class Outcome:
    job: Job
    seconds: float
    status: object  # exit code, or "raised:<type>"
    digest: str | None


def measure_setup(ref: reference.Reference) -> list[float]:
    """Wall time to import torusavg.cli (and numpy) in fresh interpreters,
    each preceded by a reference-kernel sample."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = []
    for _ in range(SETUP_SAMPLES):
        ref.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def write_jobs(workload: str, seed: int, n_max: int, work: Path):
    """Generate the workload's rounds and write one scenario file per job."""
    rounds = scenarios.WORKLOADS[workload](random.Random(seed), n_max)
    command = "predict" if workload == "predict" else "run"
    out, jid = [], 0
    for deck in rounds:
        jobs = []
        for sc in deck:
            path = work / f"{sc['name']}.json"
            path.write_text(json.dumps(sc, indent=2))
            argv = [command, str(path)]
            if command == "run":
                argv += ["--outdir", str(work / "out")]
            jobs.append(Job(jid, sc["name"], argv, sc["schedule"]["n_max"]))
            jid += 1
        out.append(jobs)
    return out


def execute(cli, job: Job, work: Path, span=nullcontext) -> Outcome:
    """One timed cli.main call; its artifacts are hashed after the clock
    stops.  A job that raises is recorded, never propagated."""
    trace_path = work / "out" / f"{job.name}.trace.csv"
    trace_path.unlink(missing_ok=True)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with span(), redirect_stdout(buf):
            status = cli.main(job.argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a failing job is counted, not fatal
        status = f"raised:{type(exc).__name__}"
        traceback.print_exc(file=sys.stderr)
    dt = time.perf_counter() - t0
    if job.argv[0] == "predict":
        data = buf.getvalue().encode() if status == 0 else None
    else:
        data = trace_path.read_bytes() if trace_path.exists() else None
    digest = hashlib.sha256(data).hexdigest() if data is not None else None
    return Outcome(job, dt, status, digest)


def timed_loop(rounds, seconds: float, one, ref: reference.Reference):
    """Apply ``one`` to every job of whole rounds, back to back, until
    ``seconds`` have elapsed, sampling the reference kernel between jobs."""
    results, done = [], 0
    t_end = time.perf_counter() + seconds
    while done == 0 or time.perf_counter() < t_end:
        for job in rounds[done % len(rounds)]:
            ref.sample_if_due()
            results.append(one(job))
        done += 1
    return results, done


def tail(times: list[float]):
    """Highest percentile with at least 10 samples beyond it:
    (value, percentile, samples)."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


class Gates:
    """Correctness checks; every failure is kept for the report."""

    def __init__(self):
        self.failures: list[str] = []

    def same(self, what: str, a, b):
        if a != b:
            self.failures.append(f"{what}: {a} != {b}")

    def repeats(self, outcomes, what: str):
        first: dict[int, str | None] = {}
        for o in outcomes:
            if o.job.jid in first:
                self.same(f"{what} {o.job.name}", first[o.job.jid], o.digest)
            else:
                first[o.job.jid] = o.digest


def workers1_variant(job: Job, work: Path) -> Job:
    """The same shipped scenario at workers = 1, under another name."""
    sc = json.loads(Path(job.argv[1]).read_text())
    sc["name"] = f"{job.name}-w1"
    sc["workers"] = 1
    path = work / f"{sc['name']}.json"
    path.write_text(json.dumps(sc, indent=2))
    return Job(job.jid, sc["name"], [job.argv[0], str(path)] + job.argv[2:],
               job.n_max)


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def machine_record(numpy_version: str) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for p in sorted((SRC / "torusavg").rglob("*.py")):
        src.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": git_commit(), "src_sha256": src.hexdigest(),
            "cpu_pinning": "none", "clock": "not fixed"}


def end_to_end(outcomes, setup, scale: float) -> dict:
    """Timings are wall seconds times ``scale`` (see reference.py)."""
    times = [o.seconds * scale for o in outcomes]
    t_val, _, _ = tail(times)
    return {
        "setup_s": (statistics.median(setup) * scale, "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (t_val, "s"),
        "terms_per_s": (sum(o.job.n_max for o in outcomes) / sum(times), "1/s"),
        "pass_frac": (sum(o.status == 0 for o in outcomes) / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def run(args, work: Path, warn) -> int:
    (work / "out").mkdir(parents=True)
    rounds = write_jobs(args.workload, args.seed, args.nmax, work)
    ref = reference.Reference(REFERENCE_THREADS[args.workload])
    setup = None if args.trace else measure_setup(ref)
    sys.path.insert(0, str(SRC))
    import numpy
    import torusavg
    import torusavg.cli as cli

    if args.fault == "raise":
        rounds[0][0].argv = ["run", 0]  # argparse raises TypeError on an int
    gates = Gates()
    detail = {"workload": args.workload, "seed": args.seed}

    if args.trace:
        # Each job runs untraced and then traced, back to back, so that
        # machine drift cancels out of the tracing overhead.
        tr = spans.Tracer()

        def pair(job):
            plain = execute(cli, job, work)
            tr.job += 1
            with spans.installed(tr, torusavg, warn):
                traced = execute(cli, job, work, lambda: tr.span("cli.main"))
            gates.same(f"traced vs untraced {job.name}", traced.digest, plain.digest)
            return plain, traced

        pairs, done = timed_loop(rounds, args.seconds, pair, ref)
        outcomes = [p for p, _ in pairs]
        untraced = sum(p.seconds for p, _ in pairs)
        traced = sum(t.seconds for _, t in pairs)
        metrics = spans.layer_metrics(tr.spans, done)
        metrics["job.untraced_s"] = (untraced / done, spans.S)
        metrics["job.traced_s"] = (traced / done, spans.S)
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
        detail["self_time_sum_s_per_round"] = sum(spans.self_times(tr.spans)) / done
        detail["spans_file"] = str(spans.write(
            tr.spans, ROOT / ".perfbench_spans" / f"{args.workload}-seed{args.seed}.jsonl"
        ).relative_to(ROOT))
    else:
        outcomes, done = timed_loop(rounds, args.seconds,
                                    lambda j: execute(cli, j, work), ref)
        metrics = end_to_end(outcomes, setup, ref.scale())
        _, pct, n = tail([o.seconds for o in outcomes])
        detail.update({"job_s_tail_percentile": pct, "job_s_tail_samples": n,
                       "setup_s_samples": setup,
                       "wall": {k: v for k, (v, _) in
                                end_to_end(outcomes, setup, 1.0).items()}})

    checked = list(outcomes)
    if len({o.job.jid for o in outcomes}) == len(outcomes):
        checked += [execute(cli, j, work) for j in rounds[0][:REPEAT_CHECK]]
    if args.fault == "digest":
        checked[-1].digest = "0" * 64
    gates.repeats(checked, "repeat digest")
    if args.workload == "shipped":
        for o in outcomes[:len(rounds[0])]:
            w1 = execute(cli, workers1_variant(o.job, work), work)
            gates.same(f"workers=1 vs 2 {o.job.name}", w1.digest, o.digest)

    failed = [o for o in outcomes if o.status not in (0, 1)]
    detail.update({
        "rounds": done,
        "jobs": len(outcomes),
        "failed_frac": sum(o.status != 0 for o in outcomes) / len(outcomes),
        "status_counts": dict(Counter(str(o.status) for o in outcomes)),
        "digest": hashlib.sha256("\n".join(
            str(o.digest) for o in outcomes[:len(rounds[0])]).encode()).hexdigest(),
        "gate_failures": gates.failures,
        "reference_s": statistics.median(ref.samples) if ref.samples else None,
        "reference_samples": len(ref.samples),
        "reference_threads": ref.threads,
        "machine": machine_record(numpy.__version__),
    })
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not gates.failures,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    for f in gates.failures:
        print(f"gate failed: {f}", file=sys.stderr)
    return 1 if gates.failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--nmax", type=int, default=scenarios.N_MAX,
                   help="orbit length per job (reduced only by selftest.py)")
    p.add_argument("--fault", choices=("raise", "digest"),
                   help="inject a fault (selftest.py only)")
    args = p.parse_args(argv)
    if not (SRC / "torusavg" / "cli.py").is_file():
        print(f"no torusavg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    warned = set()

    def warn(msg):
        if msg not in warned:
            warned.add(msg)
            print(f"warning: {msg}", file=sys.stderr)

    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        work.mkdir(parents=True)
        return run(args, work, warn)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
