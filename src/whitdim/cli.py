"""Command-line front end.

Subcommands:

* ``info <cover.json>`` -- rank, family, coroot values of Q, central index,
  squeeze bounds.
* ``residual <cover.json> --point "1/2,-1/2"`` -- integral roots at the point,
  the extended-coroot table, and the hyperspecial/vertex/splitting flags.
* ``whittaker --r --q --n --pp --qq --a [--oracle]`` -- dimension for one
  GL_r parameter, optionally cross-checked by the brute-force and
  orbit-search routes.
* ``table --r --q --n --pp --qq`` -- dimensions of all general-position
  classes, with a histogram.  The classes are computed first, per residue
  mod (q^r - 1)/(q - 1), with the number of blocks of rows each residue
  reaches; the rows are then written to stdout window by window, 1,000
  representatives at a time, byte for byte as ``json.dumps`` would print
  them.  Each row is one precomputed piece (its low three digits, the
  class size and dimension that end it, and the start of the next row)
  read from tables of 1,000 pieces per dimension, and a window is the
  join of its pieces over its thousands, so no integer is formatted per
  row.

Exit codes: 0 success, 2 malformed input, 3 mathematical-constraint
violation, 4 parameter not in general position, 5 stdout closed before all
the output was written (for example piped into ``head``), 6 a resource limit:
an enumeration would exceed its size guard (the order of a Weyl group, r
for GL_r, q^r - 1 for ``table``, or the steps of the oracle's scan), or q
has a base beyond the bound of the deterministic Miller-Rabin test.
Results go to stdout (``--format json`` for machine consumption, fixed key
order, no timestamps); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from bisect import bisect_left
from operator import itemgetter

from . import __version__
from .cover import (
    CoverSpec,
    WeylInvariantForm,
    central_index,
    classify_glr_family,
    glr_cover,
    glr_invariants_of,
    q_of_e0,
)
from .errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from .parahoric import (
    ApartmentPoint,
    is_hyperspecial,
    is_vertex,
    residual_derived_simply_connected,
    residual_extension,
    residual_splits,
)
from .root_datum import BasedRootDatum, FrobeniusAction
from .whittaker import (
    GLrTable,
    glr_coxeter_parameter,
    glr_table,
    squeeze_bounds,
    wh_dim_glr_closed,
    wh_dim_oracle,
    y_x_rho,
)

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_CONSTRAINT = 3
EXIT_NOT_GENERAL_POSITION = 4
EXIT_BROKEN_PIPE = 5
EXIT_RESOURCE_LIMIT = 6


def _int_matrix(value, name):
    if (not isinstance(value, list) or not value
            or any(not isinstance(row, list) for row in value)
            or any(not isinstance(x, int) or isinstance(x, bool)
                   for row in value for x in row)):
        raise ValueError(f"field {name!r} must be a non-empty matrix of integers")
    return tuple(tuple(row) for row in value)


def _int_field(doc, name):
    value = doc[name]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"field {name!r} must be an integer")
    return value


def load_cover_document(path):
    """Parse and fully re-validate a cover specification file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("cover document is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("cover document must be a JSON object")
    for key in ("rank", "roots", "coroots", "simple", "bq", "n", "q"):
        if key not in doc:
            raise ValueError(f"cover document is missing the field {key!r}")
    rank = _int_field(doc, "rank")
    roots = doc["roots"]
    coroots = doc["coroots"]
    if roots == [] and coroots == []:
        roots, coroots = (), ()
    else:
        roots = _int_matrix(roots, "roots")
        coroots = _int_matrix(coroots, "coroots")
    simple = doc["simple"]
    if not isinstance(simple, list) or any(
            not isinstance(i, int) or isinstance(i, bool) for i in simple):
        raise ValueError("field 'simple' must be a list of root indices")
    fr = None
    if "frobenius" in doc:
        fr = FrobeniusAction(_int_matrix(doc["frobenius"], "frobenius"))
    gram = _int_matrix(doc["bq"], "bq")
    if rank > len(gram):  # before the datum builds a rank x rank Frobenius
        raise ValueError("form size does not match the root datum rank")
    datum = BasedRootDatum(rank, roots, coroots, tuple(simple), fr)
    form = WeylInvariantForm(gram)
    return CoverSpec(datum, form, _int_field(doc, "n"), _int_field(doc, "q"))


def _record(command, inputs, results):
    return {"command": command, "inputs": inputs, "results": results,
            "version": __version__}


#: A row as ``json.dumps(record, indent=2)`` lays it out three levels deep,
#: in ``results.rows``: the text before the representative, and the text
#: after it, with the class size and dimension to fill in.
_ROW_JSON = ('      {\n        "representative": ',
             ',\n        "class_size": %d,\n        "dimension": %d\n      }')
#: A row as ``json.dumps`` prints it on one line.
_ROW_LINE = ('{"representative": ', ', "class_size": %d, "dimension": %d}')


def _write_rows(table, head, tail, sep):
    """Write the rows of a :class:`GLrTable` to stdout, joined by sep, one
    window of 1,000 representatives at a time.

    A row is head, the representative a, then the tail of its dimension.  The
    representative prints as str(a // 1000) and then "%03d" % (a % 1000)
    when a >= 1000, and as str(a) below.  So each row adds one piece: the
    low digits of a, the tail of its dimension, then sep and head, the start
    of the next row up to its thousands.  Window w is written as the join
    of its pieces over t = str(w), formatted once (t is empty in window 0),
    which puts the thousands in front of every row: the pieces of a window
    open with an empty one, so the join puts t before the first row too,
    those of window 0 open with the first row's head, and the last piece
    drops its sep and head.

    The pieces come from two tables built per call, of 1,000 x K strings
    for the K distinct dimensions (fewer when M = q^r - 1 < 1000): piece
    K x + k holds the low digits x, as str(x) in window 0 and as "%03d" % x
    after it, and the tail of the k-th dimension.  A table with fewer rows
    than that builds only the pieces of its rows.  The padded table is laid
    out twice, so that the slice of it at K (base mod 1000) holds the piece
    of base + c at offset K (c mod 1000) + k for every residue c, whatever
    base is; each residue keeps that offset.  The live residues and their
    offsets change only where a residue's reach runs out
    (:meth:`GLrTable.runs`), so no row is tested: a block wholly inside one
    window is read by one ``itemgetter`` per run, and only a block that
    crosses a window's edge is split, by ``bisect``.
    """
    dims = sorted({dim for _, _, dim in table.emitting})
    width = len(dims)
    ends = [f"{tail % (table.r, dim)}{sep}{head}" for dim in dims]
    # padded is read only past window 0, so only when M > 1000; from 100 on,
    # str(x) already has three digits
    low = min(1000, table.modulus)
    period = table.period
    if sum(len(range(c, limit, period)) for c, limit, _ in table.emitting) < low * width:
        # fewer rows than pieces: only the pieces of the rows are built, and
        # the slots that no row reads stay empty
        plain, padded, offsets = [""] * (low * width), [""] * (low * width), []
        for c, limit, dim in table.emitting:
            k = dims.index(dim)
            offsets.append(width * (c % 1000) + k)
            for a in range(c, limit, period):
                x = a % 1000
                if a < 1000:
                    plain[width * x + k] = f"{x}{ends[k]}"
                else:
                    padded[width * x + k] = f"{x:03d}{ends[k]}"
        padded *= 2
    else:
        plain = [f"{x}{end}" for x in range(low) for end in ends]
        padded = ([f"{x:03d}{end}" for x in range(min(100, low)) for end in ends]
                  + plain[100 * width:]) * 2
        # slots[dim][x] = K x + k: one int object per slot, which the residues share
        slots = {dim: list(range(k, low * width, width)) for k, dim in enumerate(dims)}
        offsets = [slots[dim][c % 1000] for c, _, dim in table.emitting]

    def windows():
        # (w, pieces) of window w, the representatives 1000 w to
        # 1000 w + 999, in increasing order
        window, pieces = 0, [head]
        for bases, residues, live in table.runs(offsets):
            first, last = residues[0], residues[-1]
            # every offset is below K (min(c, 999) + 1)
            span = width * min(last + 1, 1000)
            # itemgetter of one index returns the item, of a slice a list
            pick = itemgetter(*live) if len(live) > 1 else itemgetter(slice(live[0], live[0] + 1))
            for base in bases:
                start = width * (base % 1000)
                w = (base + first) // 1000
                if w == (base + last) // 1000:
                    if w != window:
                        yield window, pieces
                        window, pieces = w, [""]
                    pieces += pick((padded if w else plain)[start:start + span])
                    continue
                got, i = pick(padded[start:start + span]), 0
                while i < len(residues):
                    w = (base + residues[i]) // 1000
                    j = bisect_left(residues, 1000 * (w + 1) - base, i)
                    if w != window:
                        yield window, pieces
                        window, pieces = w, [""]
                    pieces += got[i:j] if w else map(plain[start:start + span].__getitem__, live[i:j])
                    i = j
        pieces[-1] = pieces[-1][:-len(sep + head)]
        yield window, pieces

    write = sys.stdout.write
    for window, pieces in windows():
        write((str(window) if window else "").join(pieces))


def _print_value(key, value, indent=""):
    if isinstance(value, dict):
        print(f"{indent}{key}:")
        for k, v in value.items():
            _print_value(k, v, indent + "  ")
    elif isinstance(value, GLrTable):
        print(f"{indent}{key}:")
        head, tail = _ROW_LINE
        _write_rows(value, f"{indent}  {head}", tail, "\n")
        sys.stdout.write("\n")
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple, dict)):
        print(f"{indent}{key}:")
        for item in value:
            print(f"{indent}  {json.dumps(item)}")
    else:
        print(f"{indent}{key} = {json.dumps(value)}")


def _print_json(record):
    results = record["results"]
    table = results.get("rows")
    if not isinstance(table, GLrTable):
        print(json.dumps(record, indent=2))
        return
    # everything but the rows goes through json.dumps, with an empty list in
    # their place; the one '"rows": []' in that text is where they go
    text = json.dumps({**record, "results": {**results, "rows": []}}, indent=2)
    head, tail = text.split('"rows": []', 1)
    sys.stdout.write(f'{head}"rows": [\n')
    _write_rows(table, *_ROW_JSON, ",\n")
    sys.stdout.write(f"\n    ]{tail}\n")


def _emit(record, fmt):
    if fmt == "json":
        _print_json(record)
    else:
        print(f"command: {record['command']}")
        for key, value in record["results"].items():
            _print_value(key, value)


def cmd_info(args):
    cover = load_cover_document(args.cover_file)
    rd = cover.datum
    results = {
        "rank": rd.rank,
        "n": cover.n,
        "q": cover.q,
        "q_simple_coroots": [cover.coroot_q[i] for i in rd.simple_indices],
    }
    invariants = glr_invariants_of(rd, cover.form)
    if invariants is not None:
        bold_p, bold_q = invariants
        results.update(bold_p=bold_p, bold_q=bold_q, q_e0=q_of_e0(rd.rank, bold_p, bold_q))
        if rd.rank >= 2:
            results["family"] = classify_glr_family(bold_p, bold_q)
    results["central_index"] = central_index(cover)
    lower, upper = squeeze_bounds(cover)
    results["squeeze_lower"] = lower
    results["squeeze_upper"] = upper
    return _record("info", {"cover_file": args.cover_file}, results)


def cmd_residual(args):
    cover = load_cover_document(args.cover_file)
    rd = cover.datum
    point = ApartmentPoint.parse(args.point)
    res = residual_extension(cover, point)
    table = [{"root": list(rd.roots[i]),
              "coroot": list(rd.coroots[i]),
              "iota": list(vec)}
             for i, vec in zip(res.phi_x, res.iota)]
    results = {
        "point": [str(c) for c in point.coords],
        "phi_x": [list(rd.roots[i]) for i in res.phi_x],
        "iota": table,
        "hyperspecial": is_hyperspecial(rd, point),
        "vertex": is_vertex(rd, point),
        "derived_simply_connected": residual_derived_simply_connected(cover, point),
        "splits": residual_splits(cover, point),
    }
    return _record("residual",
                   {"cover_file": args.cover_file, "point": args.point}, results)


def cmd_whittaker(args):
    # the closed form checks the inputs, in the order of every GL_r route;
    # only the orbit search reads a cover
    results = {"general_position": True,
               "dimension": wh_dim_glr_closed(args.r, args.q, args.n,
                                              args.pp, args.qq, args.a)}
    if args.oracle:
        results["dimension_oracle"] = wh_dim_oracle(args.r, args.q, args.n,
                                                    args.pp, args.qq, args.a)
        param = glr_coxeter_parameter(args.r, args.q, args.a, args.n)
        cover = glr_cover(args.r, args.pp, args.qq, args.n, args.q)
        _, orbit_dim = y_x_rho(cover, param)
        results["dimension_orbit_search"] = orbit_dim
        results["agreement"] = (results["dimension"]
                                == results["dimension_oracle"] == orbit_dim)
    inputs = {"r": args.r, "q": args.q, "n": args.n,
              "pp": args.pp, "qq": args.qq, "a": args.a}
    return _record("whittaker", inputs, results)


def cmd_table(args):
    table = glr_table(args.r, args.q, args.n, args.pp, args.qq)
    results = {
        "rows": table,
        "histogram": {str(dim): count for dim, count in table.histogram().items()},
    }
    inputs = {"r": args.r, "q": args.q, "n": args.n, "pp": args.pp, "qq": args.qq}
    return _record("table", inputs, results)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="whitdim",
        description="Exact invariants of covering groups: residual root data, "
                    "central indices, and Whittaker dimensions.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_info = sub.add_parser("info", help="invariants of a cover specification file")
    p_info.add_argument("cover_file")
    add_format(p_info)
    p_info.set_defaults(handler=cmd_info)

    p_res = sub.add_parser("residual", help="residual root data at an apartment point")
    p_res.add_argument("cover_file")
    p_res.add_argument("--point", required=True,
                       help="comma-separated rationals, e.g. '1/2,-1/2'")
    add_format(p_res)
    p_res.set_defaults(handler=cmd_residual)

    p_wh = sub.add_parser("whittaker", help="dimension for one GL_r parameter")
    for flag in ("--r", "--q", "--n", "--pp", "--qq", "--a"):
        p_wh.add_argument(flag, type=int, required=True)
    p_wh.add_argument("--oracle", action="store_true",
                      help="also run the brute-force and orbit-search routes")
    add_format(p_wh)
    p_wh.set_defaults(handler=cmd_whittaker)

    p_tab = sub.add_parser("table", help="dimensions of all general-position classes")
    for flag in ("--r", "--q", "--n", "--pp", "--qq"):
        p_tab.add_argument(flag, type=int, required=True)
    add_format(p_tab)
    p_tab.set_defaults(handler=cmd_table)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
    except GeneralPositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERAL_POSITION
    except MathConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        _emit(record, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to the null device
        # so that the flush at interpreter exit does not fail again
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
