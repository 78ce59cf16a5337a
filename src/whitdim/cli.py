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
  classes, with a histogram.

Exit codes: 0 success, 2 malformed input, 3 mathematical-constraint
violation, 4 parameter not in general position, 5 stdout closed before the
output was written (for example piped into ``head``), 6 an enumeration
would exceed its size guard (the semisimple rank of a Weyl group, or
q^r - 1 for ``table``).  Results go to stdout (``--format json`` for
machine consumption, fixed key order, no timestamps); diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cover import (
    CoverSpec,
    WeylInvariantForm,
    central_index,
    classify_glr_family,
    glr_cover,
    glr_invariants_of,
    q_of_coroot,
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
    enumerate_glr_table,
    glr_coxeter_parameter,
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
        doc = json.load(fh)
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
    datum = BasedRootDatum(rank, roots, coroots, tuple(simple), fr)
    form = WeylInvariantForm(_int_matrix(doc["bq"], "bq"))
    return CoverSpec(datum, form, _int_field(doc, "n"), _int_field(doc, "q"))


def _record(command, inputs, results):
    return {"command": command, "inputs": inputs, "results": results,
            "version": __version__}


def _print_value(key, value, indent=""):
    if isinstance(value, dict):
        print(f"{indent}{key}:")
        for k, v in value.items():
            _print_value(k, v, indent + "  ")
    elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple, dict)):
        print(f"{indent}{key}:")
        for item in value:
            print(f"{indent}  {json.dumps(item)}")
    else:
        print(f"{indent}{key} = {json.dumps(value)}")


def _emit(record, fmt):
    if fmt == "json":
        print(json.dumps(record, indent=2))
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
        "q_simple_coroots": list(q_of_coroot(cover.form, rd)),
    }
    invariants = glr_invariants_of(rd, cover.form)
    if invariants is not None:
        results["bold_p"] = invariants.bold_p
        results["bold_q"] = invariants.bold_q
        results["q_e0"] = q_of_e0(rd.rank, invariants.bold_p, invariants.bold_q)
        if rd.rank >= 2:
            results["family"] = classify_glr_family(invariants.bold_p, invariants.bold_q)
    results["central_index"] = central_index(cover)
    lower, upper = squeeze_bounds(cover)
    results["squeeze_lower"] = lower
    results["squeeze_upper"] = upper
    return _record("info", {"cover_file": args.cover_file}, results)


def cmd_residual(args):
    cover = load_cover_document(args.cover_file)
    rd = cover.datum
    point = ApartmentPoint.parse(args.point)
    if len(point.coords) != rd.rank:
        raise ValueError(
            f"point has {len(point.coords)} coordinates but the rank is {rd.rank}")
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
    cover = glr_cover(args.r, args.pp, args.qq, args.n, args.q)
    results = {"general_position": True,
               "dimension": wh_dim_glr_closed(args.r, args.q, args.n,
                                              args.pp, args.qq, args.a)}
    if args.oracle:
        results["dimension_oracle"] = wh_dim_oracle(args.r, args.q, args.n,
                                                    args.pp, args.qq, args.a)
        param = glr_coxeter_parameter(args.r, args.q, args.a, args.n)
        _, orbit_dim = y_x_rho(cover, param)
        results["dimension_orbit_search"] = orbit_dim
        results["agreement"] = (results["dimension"]
                                == results["dimension_oracle"] == orbit_dim)
    inputs = {"r": args.r, "q": args.q, "n": args.n,
              "pp": args.pp, "qq": args.qq, "a": args.a}
    return _record("whittaker", inputs, results)


def cmd_table(args):
    rows, histogram = enumerate_glr_table(args.r, args.q, args.n, args.pp, args.qq)
    results = {
        "rows": [{"representative": a, "class_size": size, "dimension": dim}
                 for a, size, dim in rows],
        "histogram": {str(dim): count for dim, count in histogram.items()},
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
