"""Correctness gate: the verdict on every request of a pass.

A request fails for one or more of these reasons:

* ``crash``: it raised an exception other than the program's own
  ``InternalMismatch``;
* ``cross_check``: the program's own checks failed (``InternalMismatch``,
  ``matrices_equal`` false, a CLI exit code other than 0) or, for l = 2,
  a decomposition number differs from ``level2_closed_form`` on the
  ``level2_label``s;
* ``reference``: its ``decomposition_numbers`` or ``standard_dims`` table
  differs from the reference recorded with the benchmark, or the reference
  has tables for it and the program gave none.  A request whose route
  gave no report (a CLI exit other than 0, an exception) has its tables
  made again through ``decomposition_matrix`` while it is gated, outside
  the timed loop.

A failed request is counted once, under the first of its reasons in that
order.  The reference also records the reasons each request already had
when it was recorded; a pass is correct when no request has a reason
outside those.  Characters are not in the reference: only the agreement
of the two routes checks them.
"""

from __future__ import annotations

import gzip
import json

REASONS = ("crash", "cross_check", "reference")
TABLES = ("decomposition_numbers", "standard_dims")


def request_id(request):
    l, e, kappa, n, mu = request
    return "l=%d e=%d kappa=%s n=%d mu=%s" % (
        l,
        e,
        ",".join(map(str, kappa)),
        n,
        ",".join(map(str, mu)),
    )


def load_reference(path):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(path, reference):
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(gzip.compress(text.encode("utf-8"), mtime=0))


def tables_of(report):
    return {name: report[name] for name in TABLES}


def closed_form_mismatch(decomposition, params, report):
    """The first (lambda, mu) pair of regular members whose decomposition
    number differs from the level-two closed form, or None."""
    block = report["block"]
    regs = [tuple(m) for m, r in zip(block["members"], block["regular"]) if r]
    got = {
        (tuple(x["lambda"]), tuple(x["mu"])): x["poly"]
        for x in report["decomposition_numbers"]
    }
    labels = {p: decomposition.level2_label(params, p) for p in regs}
    for mu in regs:
        for lam in regs:
            want = decomposition.level2_closed_form(params, labels[lam], labels[mu])
            if got.get((lam, mu), []) != want.to_pairs():
                return lam, mu
    return None


def reference_mismatch(report, expected):
    """The first table entry where ``report`` differs from ``expected``,
    as (table, lambda, mu), or None."""
    for name in TABLES:
        have = {(tuple(x["lambda"]), tuple(x["mu"])): x["poly"] for x in report[name]}
        want = {(tuple(x["lambda"]), tuple(x["mu"])): x["poly"] for x in expected[name]}
        for key in sorted(set(have) | set(want)):
            if have.get(key) != want.get(key):
                return (name,) + key
    return None


def has_tables(reference, request):
    """Whether ``reference`` records tables for ``request``.  A request
    that crashed when the reference was recorded has none."""
    entry = reference.get(request_id(request)) if reference else None
    return entry is not None and TABLES[0] in entry


def verdict(status, detail, report, request, params, decomposition, reference):
    """Reasons why one request failed, each with a one-line detail.

    ``status`` is what the route itself signalled (``ok``, ``cross_check``
    or ``crash``); ``report`` is its JSON report, or None when none could
    be made.  ``reference`` maps request ids to recorded entries, or is
    None while the reference is being recorded.  A request with recorded
    tables and no report fails the reference check: tables that cannot be
    compared are not taken to agree.
    """
    found = {}
    if status != "ok":
        found[status] = detail
    if report is not None and request[0] == 2:
        pair = closed_form_mismatch(decomposition, params, report)
        if pair is not None:
            found.setdefault(
                "cross_check", "d differs from level2_closed_form at %r" % (pair,)
            )
    if has_tables(reference, request):
        if report is None:
            found["reference"] = "no tables to compare with the reference"
        else:
            where = reference_mismatch(report, reference[request_id(request)])
            if where is not None:
                found["reference"] = "%s differs from the reference at %r" % (
                    where[0],
                    where[1:],
                )
    return {r: found[r] for r in REASONS if r in found}


def tally(verdicts, requests, reference):
    """Counts over one pass: failed requests by first reason, and the
    requests whose reasons are not all recorded in the reference."""
    by_reason = dict.fromkeys(REASONS, 0)
    unexpected = []
    for request, found in zip(requests, verdicts):
        if found:
            by_reason[next(iter(found))] += 1
        rid = request_id(request)
        known = set(reference[rid]["known_failures"]) if rid in reference else set()
        new = [r for r in found if r not in known]
        if new:
            unexpected.append({"request": rid, "reasons": {r: found[r] for r in new}})
    return {
        "attempted": len(requests),
        "failed": sum(by_reason.values()),
        "failed_by_reason": by_reason,
        "unexpected": unexpected,
    }
