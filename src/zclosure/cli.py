"""Command-line interface.

Subcommands: closure, invariant, decompose, relations, unipotent-closure,
bounds, chain-bounds, schreier.  Inputs are JSON files (or inline JSON);
outputs render as text or JSON via --format; the JSON is byte for byte
json.dumps(payload, indent=2).  Exit codes: 0 success, 1 stdout closed
before the output was written, 2 input error, 3 resource limit.
"""

import argparse
import functools
import json
import os
import sys

from .affine import strongest_invariant
from .bounds import (
    unipotent_degree_bound,
    semisimple_index_bound,
    chain_bounds,
    finite_subgroup_order_bound,
    _closure_degree,
    _general_index,
)
from .closure import (
    SCHREIER_MEMBERS,
    auto_closure,
    closure_unipotent_product,
    invariants_up_to_degree,
    schreier_generators,
)
from .errors import ResourceLimit, ZClosureError
from .jsonio import (
    affine_program_from_json,
    bound_report_to_json,
    dumps_indented,
    generators_from_json,
    gl_variable_names,
    ideal_to_json,
    matrix_from_json,
    matrix_to_json,
    rat_from_str,
)
from .poly import Ideal
from .relations import lattice_to_binomial_ideal, rational_relation_lattice
from .structure import jordan_chevalley, rational_eigenvalues
from ._rat import rat

__all__ = ["cli_main", "main"]


def _load_json(source: str):
    text = source.strip()
    try:
        if text.startswith("{") or text.startswith("["):
            return json.loads(text)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input nested too deeply") from None


def _reduced(ideal: Ideal) -> Ideal:
    return Ideal(ideal.arity, ideal.groebner())


def _ideal_text_lines(obj):
    return ["  " + line for line in obj["text"]] or ["  0"]


def _closure_payload(result, n):
    reduced = _reduced(result.ideal)
    names = gl_variable_names(n)
    words = result.span.words
    payload = {
        "n": n,
        "degree": result.degree_used,
        "certified": result.certified,
        "span_dimension": result.span.dimension,
        "witness": {
            "count": len(words),
            "max_word_length": max((len(w) for w in words), default=0),
        },
        "ideal": ideal_to_json(reduced, names),
    }
    text = [
        f"closure ideal of degree <= {payload['degree']} ({payload['certified']})",
        f"span dimension {payload['span_dimension']}, "
        f"{payload['witness']['count']} witnesses, "
        f"longest word {payload['witness']['max_word_length']}",
        "reduced basis:",
        *_ideal_text_lines(payload["ideal"]),
    ]
    return payload, "\n".join(text)


def _cmd_closure(args):
    gens = generators_from_json(_load_json(args.generators))
    if args.auto:
        result = auto_closure(gens, args.max_degree)
    else:
        if args.degree is None:
            raise ValueError("--degree is required unless --auto is given")
        result = invariants_up_to_degree(gens, args.degree)
    return _closure_payload(result, gens.n)


def _cmd_invariant(args):
    program = affine_program_from_json(_load_json(args.program))
    ideal = _reduced(strongest_invariant(program, args.degree))
    n = program.num_vars
    names = [f"x{i + 1}" for i in range(n)] + [f"x{i + 1}_0" for i in range(n)]
    payload = {
        "num_vars": n,
        "degree": args.degree,
        "ideal": ideal_to_json(ideal, names),
    }
    text = [
        f"strongest invariant of degree <= {args.degree} "
        f"(variables: current state, then initial state)",
        *_ideal_text_lines(payload["ideal"]),
    ]
    return payload, "\n".join(text)


def _cmd_decompose(args):
    g = matrix_from_json(_load_json(args.matrix))
    dec = jordan_chevalley(g)
    payload = {
        "semisimple": matrix_to_json(dec.semisimple),
        "unipotent": matrix_to_json(dec.unipotent),
    }
    text = [
        "semisimple part:",
        *("  " + " ".join(row) for row in payload["semisimple"]),
        "unipotent part:",
        *("  " + " ".join(row) for row in payload["unipotent"]),
    ]
    return payload, "\n".join(text)


def _cmd_relations(args):
    if args.eigenvalues:
        data = _load_json(args.eigenvalues)
        if not isinstance(data, list):
            raise ValueError("eigenvalues must be a list of rationals")
        values = [rat_from_str(v) for v in data]
    elif args.matrix:
        values = rational_eigenvalues(matrix_from_json(_load_json(args.matrix)))
    else:
        raise ValueError("need --eigenvalues or --matrix")
    if not values:
        raise ValueError("need at least one eigenvalue")
    n = len(values)
    rows = rational_relation_lattice(values)
    binomials = lattice_to_binomial_ideal(rows, n)
    names = [f"x{i + 1}" for i in range(n)]
    payload = {
        "n": n,
        "eigenvalues": [str(v) for v in values],
        "basis": rows,
        "binomials": ideal_to_json(binomials, names),
    }
    text = [
        f"relation lattice on {n} eigenvalues",
        "basis rows: " + (str(rows) if rows else "(empty)"),
        "binomials:",
        *_ideal_text_lines(payload["binomials"]),
    ]
    return payload, "\n".join(text)


def _cmd_unipotent_closure(args):
    data = _load_json(args.matrices)
    if isinstance(data, dict):
        data = data.get("matrices")
    if not isinstance(data, list):
        raise ValueError('matrices must be a list of matrices or a JSON object with a list "matrices"')
    mats = [matrix_from_json(m, f"matrices[{i}]") for i, m in enumerate(data)]
    if not mats:
        raise ValueError("need at least one matrix")
    ideal = _reduced(closure_unipotent_product(mats))
    n = mats[0].rows
    payload = {"n": n, "ideal": ideal_to_json(ideal, gl_variable_names(n))}
    text = ["unipotent product closure:", *_ideal_text_lines(payload["ideal"])]
    return payload, "\n".join(text)


def _cmd_bounds(args):
    n, h, s = args.n, args.height, args.gens
    c = rat(args.constant)
    d = unipotent_degree_bound(n)
    j = _general_index(n, d)
    report = _closure_degree(n, h, s, c, args.log_base, d, j)
    report.bounds = {
        "semisimple_index": semisimple_index_bound(n),
        "unipotent_degree": d,
        "general_index": j,
        "finite_subgroup_order": finite_subgroup_order_bound(n),
        **report.bounds,
    }
    return _report_output(report, args.format)


def _cmd_chain_bounds(args):
    return _report_output(chain_bounds(args.n, args.field_degree), args.format)


def _report_output(report, fmt):
    """(payload, text) of a bound report with only the one asked for rendered:
    its JSON can hold an integer of 10^5 digits, and pretty() is not cheap."""
    if fmt == "json":
        return bound_report_to_json(report), None
    return None, report.pretty()


def _cmd_schreier(args):
    gens = generators_from_json(_load_json(args.generators))
    out = schreier_generators(gens, args.member, args.index_bound, length_cap=args.length_cap)
    payload = {"count": len(out), "matrices": [matrix_to_json(g) for g in out]}
    text = [f"{len(out)} subgroup generators"]
    for m in payload["matrices"]:
        text.append("  " + "; ".join(" ".join(row) for row in m))
    return payload, "\n".join(text)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="zclosure",
        description="Zariski closures of rational matrix groups, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=["text", "json"], default="text")
        return p

    p = add("closure", _cmd_closure, "degree-bounded closure ideal of a generated group")
    p.add_argument("--generators", required=True, help="JSON file or literal")
    p.add_argument("--degree", type=int)
    p.add_argument("--auto", action="store_true", help="iterative deepening")
    p.add_argument("--max-degree", type=int, default=6)

    p = add("invariant", _cmd_invariant, "strongest polynomial invariant of an affine program")
    p.add_argument("--program", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = add("decompose", _cmd_decompose, "Jordan-Chevalley decomposition")
    p.add_argument("--matrix", required=True)

    p = add("relations", _cmd_relations, "multiplicative relation lattice of eigenvalues")
    p.add_argument("--eigenvalues")
    p.add_argument("--matrix")

    p = add("unipotent-closure", _cmd_unipotent_closure, "closure of a unipotent one-parameter product")
    p.add_argument("--matrices", required=True)

    p = add("bounds", _cmd_bounds, "exact bound formulas for given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--gens", type=int, required=True)
    p.add_argument("--constant", default="1", help="Masser absolute constant c")
    p.add_argument("--log-base", type=int, default=2)

    p = add("chain-bounds", _cmd_chain_bounds, "bounds on chains of algebraic subgroups")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field-degree", type=int, default=1)

    p = add("schreier", _cmd_schreier, "generators of a finite-index subgroup")
    p.add_argument("--generators", required=True)
    p.add_argument("--index-bound", type=int, required=True)
    p.add_argument(
        "--member",
        choices=sorted(SCHREIER_MEMBERS),
        default="det1",
        help="subgroup membership test: det1 (determinant 1), all, or identity; products are "
        "deduplicated before the test, so identity only ever returns the identity",
    )
    p.add_argument("--length-cap", type=int)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_status:
        code = exit_status.code
        return code if isinstance(code, int) else 2
    try:
        payload, text = args.handler(args)
    except ResourceLimit as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 3
    except (ZClosureError, ValueError, KeyError, TypeError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(dumps_indented(payload))
    else:
        print(text)
    return 0


def main():
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (as in `| head`); point stdout at devnull so the
        # flush at interpreter exit does not fail again (Python's SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
