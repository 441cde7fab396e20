"""Record the workloads' request lists and reference tables.

    python3 perfbench/record_reference.py

Writes ``perfbench/workloads.json`` (the fixed request list of each
workload) and ``perfbench/reference/<workload>.json.gz`` (per request: the
``decomposition_numbers`` and ``standard_dims`` tables from
``decomposition_matrix``, and the reasons the request failed the gate when
it was recorded).  Run it only to re-baseline the benchmark: the tables are
the reference every later version of the program is checked against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gate
import worker

def canonical_multicharges(params_mod, l, e):
    """One multicharge per shift class: first entry 0, the rest valid."""
    found = []

    def extend(prefix):
        if len(prefix) == l:
            try:
                found.append(params_mod.Params(l, e, prefix).kappa)
            except params_mod.ParamsError:
                pass
            return
        for k in range(1, e):
            extend(prefix + (k,))

    extend((0,))
    return found


def workload_specs(mods):
    """(route, families) of each workload.  A family is (l, e, kappa,
    n range); every block of it with a regular member is one request,
    named by its first member."""
    sweep = [
        (l, e, kappa, range(1, 11))
        for l in (2, 3)
        for e in range(2 * l, 9)
        for kappa in canonical_multicharges(mods["params"], l, e)
    ]
    sweep += [(4, 8, (0, 2, 4, 6), range(1, 13)), (4, 10, (0, 3, 5, 7), range(1, 13))]
    return {
        "deep-l2": ("library", [(2, 4, (0, 2), range(30, 41))]),
        "wide-l3": ("cli", [(3, 6, (0, 2, 4), range(19, 23))]),
        "sweep": ("library", sweep),
    }


def enumerate_requests(mods, families):
    dec = mods["decomposition"]
    out = []
    for l, e, kappa, ns in families:
        params = mods["params"].Params(l, e, kappa)
        for n in ns:
            for block in dec.blocks(params, n):
                if any(block.regular):
                    out.append([l, e, list(kappa), n, list(block.members[0])])
    return out


def record(mods, name, route, families):
    requests = enumerate_requests(mods, families)
    params_of = worker.make_params(mods, requests)
    workdir = os.path.join(worker.OUT, "record-%s" % name)
    os.makedirs(workdir, exist_ok=True)
    outcomes, _ = worker.run_requests(mods, route, requests, params_of, workdir)
    reference = {}
    for request, (status, detail, output) in zip(requests, outcomes):
        l, e, kappa, n, mu = request
        params = params_of[(l, e, tuple(kappa))]
        report = worker.report_of(output)
        found = gate.verdict(
            status, detail, report, request, params, mods["decomposition"], None
        )
        entry = {"known_failures": list(found)}
        library = worker.library_report(mods, params, n, mu)
        tables = gate.tables_of(library) if library is not None else None
        if report is not None and gate.tables_of(report) != tables:
            raise SystemExit("route and library tables differ on %s" % (request,))
        if tables is not None:
            entry.update(tables)
        reference[gate.request_id(request)] = entry
    shutil.rmtree(workdir)
    gate.write_reference(worker.reference_path(name), reference)
    failed = sum(1 for entry in reference.values() if entry["known_failures"])
    print("%s: %d requests, %d failing" % (name, len(requests), failed))
    return {"route": route, "requests": requests}


def main():
    mods = worker.import_program(worker.ROOT)
    specs = workload_specs(mods)
    workloads = {name: record(mods, name, *spec) for name, spec in specs.items()}
    lines = ["{"]
    for w, (name, spec) in enumerate(workloads.items()):
        lines.append('  "%s": {"route": "%s", "requests": [' % (name, spec["route"]))
        reqs = [json.dumps(r, separators=(",", ":")) for r in spec["requests"]]
        lines.append(",\n".join("    " + r for r in reqs))
        lines.append("  ]}" + ("," if w + 1 < len(workloads) else ""))
    lines.append("}")
    with open(os.path.join(worker.HERE, "workloads.json"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
