"""Cold-process benchmark of quivertl block decomposition.

    python3 perfbench/run.py --workload deep-l2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One invocation launches passes of the
workload, each a fresh interpreter (``worker.py``), one after another: one
client, a closed loop, no threads.  Caches carry over between the requests
of a pass and never between passes.  Passes start until the next one would
end after ``--seconds`` of measuring (at least three untraced passes, or
two traced and one untraced with ``--trace 1``).

The seed fixes the request order of every pass (pass k shuffles with the
seed ``"<seed>/<k>"``); the set of requests never changes.  Every request
is gated (see ``gate.py``).

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:

* ``wall_s``: first request to last request of a pass, median over passes;
* ``request_p50_ms``, ``request_p90_ms``: percentiles over requests of each
  request's median latency over the passes;
* ``failed_share``: failed requests / attempted requests;
* ``peak_rss_mb``: peak resident memory of a pass's process, median;
* ``setup_s``: launching the interpreter until it is ready for the first
  request (imports, ``Params``, ``geometry_for``), median over every pass
  and a few extra launches that only set up.

Times are at a reference speed: each is scaled by how long a fixed loop
takes next to it (see ``REFERENCE_LOOP_NS`` in ``worker.py``), so that the
host's drifting speed does not move them.  The report keeps the raw wall
and set-up time of every pass, and the loop's time.

With ``--trace 1`` traced passes alternate with untraced ones and the
metrics are the per-layer ones: calls and self time of each wrapped
function (see ``tracing.py``), medians over traced passes, and
``tracing.overhead_s``, traced minus untraced median ``wall_s``.  Counts
must repeat exactly across the traced passes, whose orders differ; the run
fails if they do not.

The last line of standard output is the result object.  The full report,
with run metadata and sample counts, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of each
traced pass next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 170  # the whole invocation must end within 180 s
SETUP_PROBES = 9
MIN_UNTRACED = 3

sys.path.insert(0, HERE)

from tracing import is_count  # noqa: E402


class BenchError(Exception):
    pass


def launch(worker_args, deadline):
    """Run one worker to completion; returns its result object with
    ``setup_s`` measured from this side of the launch."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + worker_args
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before launching %s" % worker_args)
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s did not finish in time" % worker_args)
    if proc.returncode != 0:
        raise BenchError(
            "worker %s exited %d:\n%s" % (worker_args, proc.returncode, proc.stderr[-2000:])
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw_setup_ns = result["ready_ns"] - started - result["setup_loop_ns"]
    result["raw_setup_s"] = raw_setup_ns / 1e9
    result["setup_s"] = raw_setup_ns * result["setup_scale"] / 1e9
    result["pass_s"] = (time.monotonic_ns() - started) / 1e9
    return result


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latency(passes, p):
    """Percentile p of request latency, and how many samples it rests on.

    Each request's latency is its median over the passes; the percentile is
    taken over requests.  A pass of deep-l2 or wide-l3 has too few requests
    for a p90 with ten samples beyond it, so the passes are pooled.  A
    request's latency depends on which requests before it filled the
    shared caches, which the seed decides; its median over passes does not
    depend on the order of one pass.  On wide-l3, whose latencies form two
    clusters, percentiles of these medians spread about half as much
    between runs as percentiles of all latencies pooled."""
    columns = zip(*(result["latencies_ms"] for result in passes))
    per_request = [statistics.median(samples) for samples in columns]
    return percentile(per_request, p), len(passes) * len(per_request), "per-request medians"


def end_to_end(untraced, setups):
    out = {}
    walls = [r["wall_s"] for r in untraced]
    out["wall_s"] = (statistics.median(walls), len(walls), "median of passes")
    for p in (50, 90):
        out["request_p%d_ms" % p] = latency(untraced, p)
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    out["failed_share"] = (failed / attempted, attempted, "failed / attempted")
    rss = [r["peak_rss_mb"] for r in untraced]
    out["peak_rss_mb"] = (statistics.median(rss), len(rss), "median of passes")
    out["setup_s"] = (statistics.median(setups), len(setups), "median of launches")
    return out


def per_layer(traced, untraced):
    first = traced[0]["layers"]
    for other in traced[1:]:
        changed = [
            m for m in first if is_count(m) and first[m] != other["layers"].get(m)
        ]
        if changed:
            raise BenchError(
                "counts differ between order seeds %s and %s: %s"
                % (traced[0]["order_seed"], other["order_seed"], changed)
            )
    out = {}
    for m in first:
        if is_count(m):
            out[m] = (first[m], len(traced), "identical in every traced pass")
        else:
            values = [r["layers"][m] for r in traced]
            out[m] = (statistics.median(values), len(values), "median of traced passes")
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    out["tracing.overhead_s"] = (overhead, len(traced), "traced - untraced wall_s")
    return out


def metadata(workload, seed, trace, requests):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "quivertl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "trace": trace,
    }


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    base = ["--workload", workload]
    # the first launch writes bytecode caches, which users do not pay for
    # on every run
    launch(base + ["--setup-only"], deadline)
    setups = [launch(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    traced, untraced = [], []
    measure_start = time.monotonic()
    k = 0
    while True:
        is_traced = trace and len(traced) <= len(untraced)
        same_kind = traced if is_traced else untraced
        enough = (len(traced) >= 2 and len(untraced) >= 1) if trace else len(untraced) >= MIN_UNTRACED
        next_s = same_kind[-1]["pass_s"] if same_kind else 0.0
        if enough and time.monotonic() - measure_start + next_s > seconds:
            break
        order_seed = "%d/%d" % (seed, k)
        args = base + ["--order-seed", order_seed]
        if is_traced:
            args.append("--trace")
        result = launch(args, deadline)
        same_kind.append(result)
        setups.append(result["setup_s"])
        k += 1
    everything = traced + untraced
    requests = everything[0]["attempted"]
    if any(r["attempted"] != requests for r in everything):
        raise BenchError("passes attempted different numbers of requests")
    metrics = per_layer(traced, untraced) if trace else end_to_end(untraced, setups)
    unexpected = [u for r in everything for u in r["unexpected"]]
    failed_by_reason = {
        reason: sum(r["failed_by_reason"][reason] for r in everything)
        for reason in everything[0]["failed_by_reason"]
    }
    report = {
        "metadata": metadata(workload, seed, bool(trace), requests),
        "metrics": {
            name: {"value": v, "samples": n, "how": how}
            for name, (v, n, how) in metrics.items()
        },
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "failed_by_reason": failed_by_reason,
        "unexpected_failures": unexpected,
        "failures": everything[0]["failures"],
        "passes": [
            {
                key: r[key]
                for key in (
                    "order_seed", "wall_s", "raw_wall_s", "loop_ms",
                    "setup_s", "raw_setup_s", "peak_rss_mb", "failed",
                )
            }
            | {"traced": "layers" in r}
            for r in sorted(everything, key=lambda r: int(r["order_seed"].split("/")[1]))
        ],
    }
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report, path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so that the running worker is killed
    # and waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "quivertl", "__init__.py")):
        print("error: no src/quivertl in %s; run from a checkout" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        report, path = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        print("error: metrics not measured: %s" % missing, file=sys.stderr)
        return 1
    for m in wanted:
        got = report["metrics"][m["name"]]
        print("%s: %.6g %s (%d samples, %s)" % (
            m["name"], got["value"], m["unit"], got["samples"], got["how"]))
    for reason, count in report["failed_by_reason"].items():
        print("failed.%s: %d" % (reason, count))
    for u in report["unexpected_failures"][:5]:
        print("unexpected failure: %s" % json.dumps(u))
    print("report: %s" % os.path.relpath(path, ROOT))
    result = {
        "correct": not report["unexpected_failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": report["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
