"""
Command line interface.

Subcommands:

* ``blocks``     list the blocks of TL_n(kappa),
* ``paths``      enumerate paths between two one-column multipartitions,
* ``decompose``  graded decomposition data of one block, cross-checked
                 against the path-counting oracle,
* ``svg``        draw the paths between two multipartitions.

``decompose`` counts paths without enumerating them; ``paths`` and ``svg``
enumerate reflection closures and take ``--budget``, a cap on their size.

Exit codes: 0 success, 2 configuration error (an empty or unwritable
``--out`` among them, and a standard output that cannot be written), 3
cross-check mismatch, 4 path-closure budget exceeded (``paths`` and ``svg``
only).  Reports are byte-deterministic.  A JSON report has the bytes of
``json.dumps(report, indent=2)`` and a newline, rendered by the one
writer ``_indented``: ``blocks`` and ``paths`` render the whole report
with it, and ``decompose`` renders its fragments with it, since its
tables run to thousands of entries: each table's nonzero items are
grouped by row, and only they are rendered.  An entry is joined from
fragments shared by the whole report (a member's coordinates, a distinct
polynomial), and the report is written table by table (``_emit`` takes
the strings in turn), so that no copy of the whole document is ever
made; the table report is written the same way, one line at a time.  A regular ``--out`` file is
replaced only by a complete report (``_write_file``).

The argument parser is built once per process, by the first ``main``
call, and serves every later one; each call parses into a fresh
namespace, so no option carries over.  ``set_defaults(func=...)`` binds
the ``cmd_*`` functions once, when the parser is built, but the commands
still read ``decomposition_matrix`` and ``kn_oracle`` as module globals
at each call, so that replacing those (as the tests and the benchmark's
tracer do) takes effect.

Start-up is a large part of a one-shot ``quivertl`` process, so the
module imports only what every command needs: ``svg``, which only the
``svg`` command uses, is imported by ``cmd_svg``, and no package module
imports ``dataclasses``, which pulls in ``inspect``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys

from .decomposition import (
    NoRegularMember,
    block_of,
    blocks,
    decomposition_matrix,
    first_difference,
    kn_oracle,
)
from .geometry import InternalMismatch
from .params import Params, ParamsError
from .paths import CLOSURE_BUDGET, ClosureBudgetExceeded, paths_between

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISMATCH = 3
EXIT_BUDGET = 4


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_multipartition(text, l):
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise _CliError(EXIT_CONFIG, "bad multipartition %r" % text)
    if len(parts) != l or any(p < 0 for p in parts):
        raise _CliError(
            EXIT_CONFIG, "multipartition %r needs %d nonnegative parts" % (text, l)
        )
    return parts


def _params(args):
    try:
        kappa = tuple(int(x) for x in args.kappa.split(","))
    except ValueError:
        raise _CliError(EXIT_CONFIG, "bad multicharge %r" % args.kappa)
    try:
        return Params(args.l, args.e, kappa, args.n)
    except ParamsError as ex:
        raise _CliError(EXIT_CONFIG, str(ex))


def _check_out(out):
    """Reject an ``--out`` that is empty or a directory, or whose directory
    is missing or not a directory, before anything is computed, with the
    reason ``open`` would give; ``_emit`` still reports any other failure
    to open it."""
    if out is None:
        return
    try:
        if not out:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(out):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(out) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as ex:
        raise _CliError(EXIT_CONFIG, "cannot write %s: %s" % (out, ex.strerror))


def _emit(parts, out):
    """Write the strings of the iterable ``parts``, in order, to ``out`` or
    to standard output; each is written as soon as it is made.  A file
    ``out`` is written as ``_write_file`` says."""
    if out is not None:
        try:
            _write_file(parts, out)
        except OSError as ex:
            raise _CliError(EXIT_CONFIG, "cannot write %s: %s" % (out, ex.strerror))
    elif sys.stdout is None:
        # the process started with standard output closed
        raise _CliError(
            EXIT_CONFIG, "cannot write standard output: %s" % os.strerror(errno.EBADF)
        )
    else:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except OSError as ex:
            _silence(sys.stdout)
            raise _CliError(
                EXIT_CONFIG, "cannot write standard output: %s" % ex.strerror
            )


def _write_file(parts, out):
    """Write ``parts`` to the file ``out``.  A regular file, or a path that
    names no file yet, is written through a new file next to it (the
    symbolic links of ``out`` followed, as ``open`` follows them) that
    replaces it only once every part is written: a write that fails part
    way leaves the old file, or none, and no truncated report.  The new
    file gets the mode that ``open(out, "w")`` would give it: the old
    file's, or 0o666 less the umask.  ``open``'s permission rules hold: a
    file that may not be written is refused, and where no new file may be
    made next to it, ``out`` is written directly.  Any other target, such
    as ``/dev/null`` or a FIFO, is written directly."""
    try:
        old = os.stat(out)
    except FileNotFoundError:
        old = None
    if old is not None:
        if not stat.S_ISREG(old.st_mode):
            _write_directly(parts, out)
            return
        # refused as open(out, "w") would refuse it, without truncating it
        os.close(os.open(out, os.O_WRONLY))
    path = os.path.realpath(out)
    head, tail = os.path.split(path)
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    attempt = 0
    while True:
        temp = os.path.join(head, ".%s.%d-%d.tmp" % (tail, os.getpid(), attempt))
        try:
            # created 0o666 less the umask, as open creates a new file
            fd = os.open(temp, flags, 0o666)
            break
        except FileExistsError:
            attempt += 1
        except PermissionError:
            # a directory that takes no new file: open writes in place, or
            # fails as open fails
            _write_directly(parts, out)
            return
    try:
        with open(fd, "w") as fh:
            if old is not None:
                os.chmod(temp, stat.S_IMODE(old.st_mode))
            fh.writelines(parts)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _write_directly(parts, out):
    with open(out, "w") as fh:
        fh.writelines(parts)


def _silence(stream):
    """Send ``stream``'s descriptor to the null device after a failed
    write: what is still buffered cannot be written either, and this way
    the flush at exit neither fails nor prints a second error."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, stream.fileno())
    finally:
        os.close(devnull)


def _report(message):
    """Write ``error: <message>`` to standard error.  A standard error that
    is closed or cannot be written loses the line, and the exit code still
    says what went wrong."""
    if sys.stderr is None:
        # the process started with standard error closed
        return
    try:
        sys.stderr.write("error: %s\n" % message)
        sys.stderr.flush()
    except OSError:
        _silence(sys.stderr)


def cmd_blocks(args):
    params = _params(args)
    found = blocks(params, args.n)
    if args.format == "json":
        report = {
            "params": params.to_json(),
            "n": args.n,
            "blocks": [b.to_json() for b in found],
        }
        _emit([_indented(report, 0) + "\n"], args.out)
        return EXIT_OK
    lines = ["blocks of TL_%d, l=%d e=%d kappa=%s" % (args.n, params.l, params.e, list(params.kappa))]
    for idx, b in enumerate(found):
        lines.append("block %d:" % idx)
        for member, reg in zip(b.members, b.regular):
            lines.append(
                "  %s%s" % (list(member), "" if reg else "  (singular)")
            )
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def cmd_paths(args):
    params = _params(args)
    lam = _parse_multipartition(args.lam, params.l)
    mu = _parse_multipartition(args.mu, params.l)
    if sum(lam) != args.n or sum(mu) != args.n:
        raise _CliError(EXIT_CONFIG, "multipartitions must have n=%d boxes" % args.n)
    try:
        found = paths_between(params, lam, mu, args.budget)
    except ClosureBudgetExceeded as ex:
        raise _CliError(EXIT_BUDGET, str(ex))
    if args.format == "json":
        report = {
            "params": params.to_json(),
            "lambda": list(lam),
            "mu": list(mu),
            "paths": [
                {"steps": list(p.steps), "degree": d} for p, d in found
            ],
        }
        _emit([_indented(report, 0) + "\n"], args.out)
        return EXIT_OK
    lines = ["paths from %s to %s: %d" % (list(mu), list(lam), len(found))]
    for p, d in found:
        lines.append("  %s  degree %d" % ("".join(str(s) for s in p.steps), d))
    _emit(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK


def cmd_decompose(args):
    params = _params(args)
    mu = _parse_multipartition(args.mu, params.l)
    if sum(mu) != args.n:
        raise _CliError(EXIT_CONFIG, "mu must have n=%d boxes" % args.n)
    block = block_of(params, args.n, mu)
    try:
        matrix = decomposition_matrix(params, block)
        if args.oracle == "on":
            diff = first_difference(matrix, kn_oracle(params, block))
            if diff:
                raise _CliError(
                    EXIT_MISMATCH,
                    "recursion route and path-counting oracle disagree on %s "
                    "at lambda=%s, mu=%s" % (diff[0], list(diff[1]), list(diff[2])),
                )
    except InternalMismatch as ex:
        raise _CliError(EXIT_MISMATCH, str(ex))
    except NoRegularMember as ex:
        raise _CliError(EXIT_CONFIG, str(ex))
    if args.format == "json":
        _emit(_render_matrix_json(matrix, args.oracle == "on"), args.out)
        return EXIT_OK
    _emit(_render_matrix_table(matrix), args.out)
    return EXIT_OK


def _indented(data, depth):
    """``json.dumps(data, indent=2)`` as it appears ``depth`` levels deep
    in an indent-2 document, for data built of dicts with string keys,
    lists, ints and bools.  Rendered here, not by ``json``, whose indenting
    encoder runs in pure Python and is several times slower."""
    if type(data) is bool:
        return "true" if data else "false"
    if type(data) is int:
        return str(data)
    if not data:
        return "{}" if type(data) is dict else "[]"
    pad = "\n" + "  " * (depth + 1)
    if type(data) is dict:
        items = (json.dumps(k) + ": " + _indented(v, depth + 1) for k, v in data.items())
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "}"
    items = (_indented(x, depth + 1) for x in data)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _render_matrix_json(matrix, cross_checked):
    """The ``decompose`` report, ``matrix.to_json()`` with ``cross_checked``
    appended, as the bytes of ``json.dumps(report, indent=2)`` and a
    newline, yielded as nine strings: each table is one of them, rendered
    only when it is reached, so that ``_emit`` writes it before the next
    one is built and the report is never one string.

    Each table's nonzero items are grouped by lambda in one pass, and each
    row is sorted by mu, so that the order is ``sorted(table.items())``
    whatever the tables' insertion order; a row holds each mu as its
    index in the sorted members, so that the sort compares ints.  An
    entry is three shared strings: its row's lambda text, made once per
    row, the mu text, made once per member, and the poly text with the
    entry's closing brace, made once per distinct value; each table is
    joined once."""
    members = sorted(matrix.block.members)
    index = {m: i for i, m in enumerate(members)}
    coords = [_indented(m, 3) for m in members]
    mu_texts = [text + ',\n      "poly": ' for text in coords]
    # the text of each distinct polynomial, keyed by the identity of its
    # value: the routes store canonical values (``laurent.canonical``), so
    # equal values are one object
    polys = {}

    def table(data):
        rows = {}
        for (lam, mu), poly in data.items():
            if poly.terms:
                rows.setdefault(lam, []).append((index[mu], poly))
        if not rows:
            return "[]"
        out = ["["]
        for lam in sorted(rows):
            coord = coords[index[lam]]
            lam_text = ',\n    {\n      "lambda": ' + coord + ',\n      "mu": '
            row = rows[lam]
            row.sort()  # the mu of a row are distinct: no poly is compared
            for i, poly in row:
                text = polys.get(id(poly))
                if text is None:
                    text = polys[id(poly)] = _indented(poly.to_pairs(), 3) + "\n    }"
                out += (lam_text, mu_texts[i], text)
        # the first entry follows "[" with no comma
        out[1] = out[1][1:]
        out.append("\n  ]")
        return "".join(out)

    yield '{\n  "block": '
    yield _indented(matrix.block.to_json(), 1)
    yield ',\n  "decomposition_numbers": '
    yield table(matrix.entries)
    yield ',\n  "characters": '
    yield table(matrix.characters)
    yield ',\n  "standard_dims": '
    yield table(matrix.standard_dims)
    yield ',\n  "cross_checked": ' + _indented(cross_checked, 1) + "\n}\n"


def _render_matrix_table(matrix):
    """The ``decompose`` table report: the three tables as member-by-member
    grids, yielded one line at a time, so that ``_emit`` writes each row
    before the next is made and the report is never one string.  A zero
    cell is written ``0``, and each distinct polynomial is rendered once,
    keyed by its value's identity as in ``_render_matrix_json``.

    Each table takes two passes.  The first sets each column's width from
    its header and its nonzero cells' texts, read from the table's items; a
    zero cell's ``0`` is never wider than a header, which is a member
    written as a list.  The second renders the rows, reading each cell
    through ``matrix.d``, ``character`` or ``standard_dim``, which return a
    member pair's value by key."""
    members = matrix.block.members
    names = [str(list(m)) for m in members]
    index = {m: i for i, m in enumerate(members)}
    first = max(len("lambda \\ mu"), *map(len, names))
    polys = {}

    def text(value):
        got = polys.get(id(value))
        if got is None:
            got = polys[id(value)] = str(value)
        return got

    yield "block: %s\n" % [list(m) for m in members]
    for title, data, getter in [
        ("decomposition numbers d:", matrix.entries, matrix.d),
        ("simple characters:", matrix.characters, matrix.character),
        ("standard dimensions:", matrix.standard_dims, matrix.standard_dim),
    ]:
        widths = list(map(len, names))
        for (_, mu), value in data.items():
            if value.terms:
                i = index[mu]
                widths[i] = max(widths[i], len(text(value)))
        yield title + "\n"
        header = ["lambda \\ mu".ljust(first)] + list(map(str.ljust, names, widths))
        yield "  " + "  ".join(header) + "\n"
        for lam, name in zip(members, names):
            row = [name.ljust(first)]
            for mu, width in zip(members, widths):
                value = getter(lam, mu)
                row.append((text(value) if value.terms else "0").ljust(width))
            yield "  " + "  ".join(row) + "\n"


def cmd_svg(args):
    # only this command draws, so only it imports the module (see the
    # module docstring)
    from . import svg as svg_mod

    params = _params(args)
    mu = _parse_multipartition(args.mu, params.l)
    lam = _parse_multipartition(args.lam, params.l) if args.lam is not None else mu
    if sum(lam) != args.n or sum(mu) != args.n:
        raise _CliError(EXIT_CONFIG, "multipartitions must have n=%d boxes" % args.n)
    try:
        text = svg_mod.render(params, lam, mu, args.budget)
    except svg_mod.RankTooHigh as ex:
        raise _CliError(EXIT_CONFIG, str(ex))
    except ClosureBudgetExceeded as ex:
        raise _CliError(EXIT_BUDGET, str(ex))
    _emit([text], args.out)
    return EXIT_OK


def _add_common(sub, with_budget=True):
    sub.add_argument("--l", type=int, required=True, help="number of components")
    sub.add_argument("--e", type=int, required=True, help="quantum characteristic")
    sub.add_argument("--kappa", required=True, help="comma separated multicharge")
    sub.add_argument("--n", type=int, required=True, help="number of boxes")
    sub.add_argument("--out", default=None, help="write the report to a file")
    if with_budget:
        sub.add_argument(
            "--budget",
            type=int,
            default=CLOSURE_BUDGET,
            help="cap on the size of path reflection closures",
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivertl",
        description="graded decomposition numbers of quiver Temperley-Lieb algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_blocks = subs.add_parser("blocks", help="list blocks")
    _add_common(p_blocks, with_budget=False)
    p_blocks.add_argument("--format", choices=("table", "json"), default="table")
    p_blocks.set_defaults(func=cmd_blocks)

    p_paths = subs.add_parser("paths", help="enumerate paths between weights")
    _add_common(p_paths)
    p_paths.add_argument("--lambda", dest="lam", required=True)
    p_paths.add_argument("--mu", required=True)
    p_paths.add_argument("--format", choices=("table", "json"), default="table")
    p_paths.set_defaults(func=cmd_paths)

    p_dec = subs.add_parser("decompose", help="decomposition data of a block")
    _add_common(p_dec, with_budget=False)
    p_dec.add_argument("--mu", required=True, help="a member of the block")
    p_dec.add_argument("--oracle", choices=("on", "off"), default="on")
    p_dec.add_argument("--format", choices=("table", "json"), default="table")
    p_dec.set_defaults(func=cmd_decompose)

    p_svg = subs.add_parser("svg", help="draw paths between weights")
    _add_common(p_svg)
    p_svg.add_argument("--lambda", dest="lam", default=None)
    p_svg.add_argument("--mu", required=True)
    p_svg.set_defaults(func=cmd_svg)
    return parser


_PARSER = None  # built by the first ``main`` call


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except _CliError as ex:
        _report(ex)
        return ex.code
    except ValueError as ex:
        _report(ex)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
