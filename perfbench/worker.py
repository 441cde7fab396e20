"""One pass of a workload in a fresh interpreter.

``run.py`` launches this file once per pass.  The pass imports quivertl
from the checkout's ``src``, builds the ``Params`` and geometries of the
workload (this is set-up), then issues every request of the workload one
after another in the order a seed shuffles them to, so caches carry over
between requests as in a user's script.  After the last request it gates
every result and prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload sweep --order-seed 7/0 [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

# Times are given at a reference speed.  On a shared 2-vCPU Xeon VM the
# same Python code ran up to 50% slower for seconds at a time, and a
# workload's pass time drifted by 30-40% within minutes.  A fixed loop
# timed next to the work measures that speed, and each time is scaled to a
# machine on which the loop takes REFERENCE_LOOP_NS (about its fastest time
# on that VM).  Over 23-30 passes per workload there, the scaled wall time
# of a pass spread 3-6% (IQR/median) where the raw one spread 10-28%.
REFERENCE_LOOP_NS = 2_000_000
SAMPLE_EVERY_NS = 100_000_000
SETUP_LOOPS = 3

sys.path.insert(0, HERE)

import gate  # noqa: E402
from tracing import Tracer  # noqa: E402


def import_program(root):
    """The quivertl modules, imported from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quivertl", "__init__.py")):
        raise SystemExit("no quivertl package under %s" % src)
    sys.path.insert(0, src)
    import quivertl
    from quivertl import cli, decomposition, geometry, params, paths, soergel

    where = os.path.dirname(os.path.abspath(quivertl.__file__))
    if where != os.path.join(src, "quivertl"):
        raise SystemExit("quivertl was imported from %s, not from %s" % (where, src))
    return {
        "cli": cli,
        "decomposition": decomposition,
        "geometry": geometry,
        "geometry.Geometry": geometry.Geometry,
        "params": params,
        "paths": paths,
        "soergel": soergel,
    }


def load_workloads():
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_path(workload):
    return os.path.join(HERE, "reference", workload + ".json.gz")


def spans_path(workload, order_seed):
    """Where a traced pass writes its spans: order seed ``7/3`` gives
    ``.bench_out/spans-<workload>-seed7-pass3.json.gz``."""
    return os.path.join(
        OUT, "spans-%s-seed%s.json.gz" % (workload, order_seed.replace("/", "-pass"))
    )


def make_params(mods, requests):
    """Params and geometry of every parameter set a workload uses."""
    out = {}
    for l, e, kappa, _, _ in requests:
        key = (l, e, tuple(kappa))
        if key not in out:
            out[key] = mods["params"].Params(l, e, tuple(kappa))
            mods["geometry"].geometry_for(out[key])
    return out


def _library_request(mods, params, n, mu, _out):
    dec = mods["decomposition"]
    block = dec.block_of(params, n, mu)
    matrix = dec.decomposition_matrix(params, block)
    oracle = dec.kn_oracle(params, block)
    if dec.matrices_equal(matrix, oracle):
        return "ok", "", matrix
    return "cross_check", "decomposition_matrix and kn_oracle differ", matrix


def _cli_request(mods, params, n, mu, out):
    argv = [
        "decompose",
        "--l", str(params.l),
        "--e", str(params.e),
        "--kappa", ",".join(map(str, params.kappa)),
        "--n", str(n),
        "--mu", ",".join(map(str, mu)),
        "--format", "json",
        "--out", out,
    ]
    code = mods["cli"].main(argv)
    if code == 0:
        return "ok", "", out
    return "cross_check", "cli exit %d" % code, None


ROUTES = {"library": _library_request, "cli": _cli_request}


def reference_loop():
    """A fixed pure-Python loop that allocates nothing the cyclic garbage
    collector tracks, so the program's heap does not change its time."""
    d = {}
    s = 0
    for i in range(10000):
        k = i * 7919 % 1021
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return s


def loop_ns():
    start = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - start


def run_requests(mods, route, requests, params_of, workdir, tracer=None):
    """Issue the requests in order.  Returns the (status, detail, output)
    outcome of each request, and its timing: each request's latency and
    the wall time from the start of the first request to the end of the
    last, both in ns at the reference speed, the raw wall time, and the
    median time of the reference loop.

    The reference loop is timed before the first request and then between
    requests, whenever ``SAMPLE_EVERY_NS`` have passed since it last ran.
    A request's latency is scaled by ``REFERENCE_LOOP_NS`` over the mean of
    the loop times just before and just after it; the wall time by the
    scaled latencies' total over the raw one.  Loop time is not part of
    the wall time."""
    mismatch = mods["soergel"].InternalMismatch
    call = ROUTES[route]
    if tracer is not None:
        call = tracer.wrap_span("request", call)
        tracer.on = True
    clock = time.perf_counter_ns
    loops = [loop_ns()]
    before = []  # per request: index in ``loops`` of the loop timed before it
    raw = []
    outcomes = []
    looping = 0
    first = last_loop = clock()
    for idx, (l, e, kappa, n, mu) in enumerate(requests):
        params = params_of[(l, e, tuple(kappa))]
        out = os.path.join(workdir, "%d.json" % idx)
        if tracer is not None:
            tracer.request = idx
        start = clock()
        try:
            outcome = call(mods, params, n, tuple(mu), out)
        except mismatch as ex:
            outcome = ("cross_check", "InternalMismatch: %s" % ex, None)
        except Exception as ex:  # every other exception is a crash
            outcome = ("crash", "%s: %s" % (type(ex).__name__, ex), None)
        end = clock()
        raw.append(end - start)
        before.append(len(loops) - 1)
        outcomes.append(outcome)
        if end - last_loop >= SAMPLE_EVERY_NS or idx == len(requests) - 1:
            loops.append(loop_ns())
            last_loop = clock()
            looping += last_loop - end
    raw_wall = clock() - first - looping
    if tracer is not None:
        tracer.on = False
    latencies = [
        ns * 2 * REFERENCE_LOOP_NS / (loops[b] + loops[b + 1]) for ns, b in zip(raw, before)
    ]
    return outcomes, {
        "latencies_ns": latencies,
        "wall_ns": raw_wall * sum(latencies) / sum(raw),
        "raw_wall_ns": raw_wall,
        "loop_ns": statistics.median(loops),
    }


def report_of(output):
    """The JSON report of one request's output: a DecompositionMatrix from
    the library route, a report file from the CLI route."""
    if output is None:
        return None
    if isinstance(output, str):
        with open(output, encoding="utf-8") as fh:
            return json.load(fh)
    return output.to_json()


def library_report(mods, params, n, mu):
    """The JSON report of ``decomposition_matrix`` on one block, or None
    when it raises."""
    dec = mods["decomposition"]
    try:
        return dec.decomposition_matrix(params, dec.block_of(params, n, tuple(mu))).to_json()
    except Exception:  # the route's own outcome already says why
        return None


def gate_requests(mods, requests, params_of, outcomes, reference):
    """The gate's verdict on every request.  A request whose route gave no
    report but whose reference has tables gets its tables from
    ``library_report``, so that a failing route still has them compared."""
    verdicts = []
    for request, (status, detail, output) in zip(requests, outcomes):
        l, e, kappa, n, mu = request
        params = params_of[(l, e, tuple(kappa))]
        report = report_of(output)
        if report is None and gate.has_tables(reference, request):
            report = library_report(mods, params, n, mu)
        verdicts.append(
            gate.verdict(
                status, detail, report, request, params, mods["decomposition"], reference
            )
        )
    return verdicts


def request_order(count, order_seed):
    """The positions of the workload's requests in the order they are
    issued."""
    order = list(range(count))
    random.Random(order_seed).shuffle(order)
    return order


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--order-seed", default="0")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # the reference loop, timed SETUP_LOOPS times on each side of set-up,
    # gives the scale of the set-up time
    started = time.monotonic_ns()
    loops = [loop_ns() for _ in range(SETUP_LOOPS)]
    setup_loop_ns = time.monotonic_ns() - started
    spec = load_workloads()[args.workload]
    mods = import_program(ROOT)
    params_of = make_params(mods, spec["requests"])
    ready_ns = time.monotonic_ns()
    loops += [loop_ns() for _ in range(SETUP_LOOPS)]
    setup = {
        "ready_ns": ready_ns,
        # run.py takes this out of the set-up time and scales the rest
        "setup_loop_ns": setup_loop_ns,
        "setup_scale": REFERENCE_LOOP_NS / statistics.median(loops),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    order = request_order(len(spec["requests"]), args.order_seed)
    requests = [spec["requests"][i] for i in order]
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(mods)
    try:
        outcomes, timing = run_requests(
            mods, spec["route"], requests, params_of, workdir, tracer
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        reference = gate.load_reference(reference_path(args.workload))
        verdicts = gate_requests(mods, requests, params_of, outcomes, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = gate.tally(verdicts, requests, reference)
    result.update(
        setup,
        order_seed=args.order_seed,
        wall_s=timing["wall_ns"] / 1e9,
        raw_wall_s=timing["raw_wall_ns"] / 1e9,
        loop_ms=timing["loop_ns"] / 1e6,
        # in the workload's own order, so that passes line up per request
        latencies_ms=[ns / 1e6 for _, ns in sorted(zip(order, timing["latencies_ns"]))],
        peak_rss_mb=peak_rss_mb,
        failures={
            gate.request_id(r): v for r, v in zip(requests, verdicts) if v
        },
    )
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(spans_path(args.workload, args.order_seed))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
