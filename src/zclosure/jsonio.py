"""JSON wire formats and human-readable polynomial text.

Rationals are strings "p/q" (or "p"), matrices are row-major string grids,
polynomials are coefficient/exponent records, and tower values serialize as
nested nodes.  Text renderings of polynomials are round-trippable.
"""

import json

from .affine import AffineProgram
from .bounds import BoundReport
from .closure import GeneratorSet
from .linalg import QMatrix
from .poly import Ideal, Poly
from .tower import TowerNumber
from ._rat import rat

__all__ = [
    "rat_to_str",
    "rat_from_str",
    "matrix_to_json",
    "matrix_from_json",
    "generators_from_json",
    "gl_variable_names",
    "poly_to_json",
    "ideal_to_json",
    "poly_to_text",
    "tower_to_json",
    "bound_report_to_json",
    "dumps_indented",
    "affine_program_from_json",
    "SCHEMAS",
]


def rat_to_str(q) -> str:
    """The wire text of a rational (or int): both backends print "p/q" or "p"."""
    return str(q)


def rat_from_str(s: str):
    """A rational from a "p/q" string or an integer; other JSON values are refused."""
    if s is None or isinstance(s, (bool, float, list, dict)):
        raise ValueError(f'expected a rational as a "p/q" string or an integer, got {json.dumps(s)}')
    return rat(s)


def matrix_to_json(m: QMatrix):
    return [[rat_to_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(rows, field="matrix") -> QMatrix:
    """A matrix from a list of equal-length row lists; field names it in errors."""
    if (
        not isinstance(rows, list)
        or not all(isinstance(row, list) for row in rows)
        or len({len(row) for row in rows}) > 1
    ):
        raise ValueError(f"{field} must be a list of equal-length lists")
    if not rows or not rows[0]:
        raise ValueError(f"{field} needs at least one row and one column")
    return QMatrix.from_rows([[rat_from_str(e) for e in row] for row in rows])


def generators_from_json(obj) -> GeneratorSet:
    if not isinstance(obj, dict) or "n" not in obj or "generators" not in obj:
        raise ValueError('generators must be a JSON object with "n" and "generators"')
    if not isinstance(obj["generators"], list):
        raise ValueError('"generators" must be a list of matrices')
    if type(obj["n"]) is not int:
        raise ValueError('"n" must be an integer')
    if obj["n"] < 1:
        raise ValueError('"n" must be at least 1')
    mats = [matrix_from_json(m, f"generators[{i}]") for i, m in enumerate(obj["generators"])]
    gens = GeneratorSet(mats)
    if gens.n != obj["n"]:
        raise ValueError("generator size does not match n")
    return gens


def gl_variable_names(n: int):
    """x11..xnn then y, the embedded-coordinate naming convention."""
    return [f"x{i + 1}{j + 1}" for i in range(n) for j in range(n)] + ["y"]


def _coeff_terms(p: Poly):
    """(monomial, coefficient text) of p's terms in descending grevlex order."""
    return [(mono, str(c)) for mono, c in p.sorted_terms()]


def _terms_json(terms):
    return [{"coeff": c, "exps": list(mono)} for mono, c in terms]


def _terms_text(terms, names) -> str:
    if not terms:
        return "0"
    bits = []
    for mono, c in terms:
        body = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e
        )
        negative = c[0] == "-"
        mag = c[1:] if negative else c
        if body:
            piece = body if mag == "1" else f"{mag}*{body}"
        else:
            piece = mag
        if not bits:
            bits.append(f"-{piece}" if negative else piece)
        else:
            bits.append(f"- {piece}" if negative else f"+ {piece}")
    return " ".join(bits)


def poly_to_json(p: Poly):
    return _terms_json(_coeff_terms(p))


def poly_to_text(p: Poly, names) -> str:
    return _terms_text(_coeff_terms(p), names)


def ideal_to_json(ideal: Ideal, names):
    """The ideal's record; each generator's terms are sorted and printed once
    for both its JSON terms and its text."""
    terms = [_coeff_terms(g) for g in ideal.generators]
    return {
        "arity": ideal.arity,
        "variables": list(names),
        "generators": [_terms_json(t) for t in terms],
        "text": [_terms_text(t, names) for t in terms],
    }


def _decimal(v, texts) -> str:
    """str(v) of a Fraction; texts maps an integer to its digits, so each
    distinct integer of one report, up to thousands of digits, is converted
    once."""
    if v.denominator != 1:
        return str(v)
    n = v.numerator
    text = texts.get(n)
    if text is None:
        text = texts[n] = str(n)
    return text


def _tower_record(t: TowerNumber, records, texts):
    """The node record of t; records maps id(node) to its record, so a
    subtree shared within one report is rendered once."""
    rec = records.get(id(t))
    if rec is not None:
        return rec
    if t.kind == "exact":
        rec = {"kind": "exact", "value": _decimal(t.value, texts)}
    elif t.kind == "pow":
        rec = {
            "kind": "pow",
            "base": _tower_record(t.base, records, texts),
            "exp": _tower_record(t.exp, records, texts),
        }
    elif t.kind == "factorial":
        rec = {"kind": "factorial", "arg": _tower_record(t.arg, records, texts)}
    elif t.kind == "mul":
        rec = {
            "kind": "mul",
            "coeff": _decimal(t.coeff, texts),
            "factors": [_tower_record(f, records, texts) for f in t.factors],
        }
    else:
        rec = {
            "kind": "add",
            "const": _decimal(t.const, texts),
            "terms": [_tower_record(x, records, texts) for x in t.terms],
        }
    records[id(t)] = rec
    return rec


def tower_to_json(t: TowerNumber):
    return _tower_record(t, {}, {})


def bound_report_to_json(report: BoundReport):
    bounds, records, texts = {}, {}, {}
    for name, value in report.bounds.items():
        if value.is_exact:
            bounds[name] = {"form": "exact", "value": _decimal(value.value, texts)}
        else:
            bounds[name] = {
                "form": "tower",
                "expr": _tower_record(value, records, texts),
                "pretty": value.pretty(),
            }
    return {"params": dict(report.params), "bounds": bounds}


_ENCODE_STR = json.encoder.encode_basestring_ascii


def dumps_indented(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, in one flat pass.

    With an indent, json runs its pure-Python encoder, which passes every
    chunk up through one generator per nesting level; here the chunks go to
    one list that is joined once.  Strings go through the C escaper json
    itself uses.  Dict keys must be strings (TypeError otherwise; json would
    also write numbers, booleans and null as keys), and a reference cycle
    in obj raises RecursionError where json raises ValueError.
    """
    chunks = []
    _write_indented(obj, chunks.append, "\n")
    return "".join(chunks)


def _write_indented(o, app, newline):
    """Append the indented JSON of o, at the depth that newline (a line
    break, then two spaces a level) leads to.  A module-level function: a
    closure calling itself would be a reference cycle that keeps the chunk
    list alive until the cyclic collector runs."""
    if isinstance(o, str):
        app(_ENCODE_STR(o))
    elif isinstance(o, dict):
        if not o:
            app("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in o.items():
            app(sep + _ENCODE_STR(key) + ": ")
            _write_indented(value, app, inner)
            sep = "," + inner
        app(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            app("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in o:
            app(sep)
            _write_indented(value, app, inner)
            sep = "," + inner
        app(newline + "]")
    elif isinstance(o, int) and not isinstance(o, bool):
        app(int.__repr__(o))
    else:
        # bool, None and float: json's scalar text is the same with or without an indent
        app(json.dumps(o))


def affine_program_from_json(obj) -> AffineProgram:
    if not isinstance(obj, dict) or "num_vars" not in obj or not isinstance(obj.get("updates"), list):
        raise ValueError('an affine program must be a JSON object with "num_vars" and a list "updates"')
    if type(obj["num_vars"]) is not int:
        raise ValueError('"num_vars" must be an integer')
    if obj["num_vars"] < 1:
        raise ValueError('"num_vars" must be at least 1')
    updates = []
    for i, u in enumerate(obj["updates"]):
        if not isinstance(u, dict) or "A" not in u or "b" not in u:
            raise ValueError(f'updates[{i}] must be a JSON object with "A" and "b"')
        if not isinstance(u["b"], list):
            raise ValueError(f"updates[{i}].b must be a list")
        a = matrix_from_json(u["A"], f"updates[{i}].A")
        b = [rat_from_str(x) for x in u["b"]]
        updates.append((a, b))
    return AffineProgram(obj["num_vars"], updates)


_RATIONAL_PATTERN = r"^-?\d+(/\d+)?$"

_MATRIX_SCHEMA = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "string", "pattern": _RATIONAL_PATTERN}},
}

_POLY_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["coeff", "exps"],
        "properties": {
            "coeff": {"type": "string", "pattern": _RATIONAL_PATTERN},
            "exps": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        },
    },
}

_IDEAL_SCHEMA = {
    "type": "object",
    "required": ["arity", "variables", "generators"],
    "properties": {
        "arity": {"type": "integer", "minimum": 0},
        "variables": {"type": "array", "items": {"type": "string"}},
        "generators": {"type": "array", "items": _POLY_SCHEMA},
        "text": {"type": "array", "items": {"type": "string"}},
    },
}

_TOWER_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {"kind": {"enum": ["exact", "pow", "factorial", "mul", "add"]}},
}

SCHEMAS = {
    "matrix": _MATRIX_SCHEMA,
    "generators": {
        "type": "object",
        "required": ["n", "generators"],
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "generators": {"type": "array", "items": _MATRIX_SCHEMA},
        },
    },
    "ideal": _IDEAL_SCHEMA,
    "closure_report": {
        "type": "object",
        "required": ["n", "degree", "certified", "span_dimension", "ideal"],
        "properties": {
            "n": {"type": "integer"},
            "degree": {"type": "integer"},
            "certified": {"enum": ["degree-complete", "heuristic-stable"]},
            "span_dimension": {"type": "integer"},
            "witness": {
                "type": "object",
                "properties": {
                    "count": {"type": "integer"},
                    "max_word_length": {"type": "integer"},
                },
            },
            "ideal": _IDEAL_SCHEMA,
        },
    },
    "bound_report": {
        "type": "object",
        "required": ["params", "bounds"],
        "properties": {
            "params": {"type": "object"},
            "bounds": {
                "type": "object",
                "additionalProperties": {
                    "type": "object",
                    "required": ["form"],
                    "properties": {
                        "form": {"enum": ["exact", "tower"]},
                        "value": {"type": "string"},
                        "expr": _TOWER_SCHEMA,
                        "pretty": {"type": "string"},
                    },
                },
            },
        },
    },
    "decomposition": {
        "type": "object",
        "required": ["semisimple", "unipotent"],
        "properties": {"semisimple": _MATRIX_SCHEMA, "unipotent": _MATRIX_SCHEMA},
    },
    "relations": {
        "type": "object",
        "required": ["n", "basis", "binomials"],
        "properties": {
            "n": {"type": "integer"},
            "eigenvalues": {
                "type": "array",
                "items": {"type": "string", "pattern": _RATIONAL_PATTERN},
            },
            "basis": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
            "binomials": _IDEAL_SCHEMA,
        },
    },
    "affine_program": {
        "type": "object",
        "required": ["num_vars", "updates"],
        "properties": {
            "num_vars": {"type": "integer", "minimum": 1},
            "updates": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["A", "b"],
                    "properties": {
                        "A": _MATRIX_SCHEMA,
                        "b": {"type": "array", "items": {"type": "string", "pattern": _RATIONAL_PATTERN}},
                    },
                },
            },
        },
    },
    "schreier": {
        "type": "object",
        "required": ["count", "matrices"],
        "properties": {
            "count": {"type": "integer"},
            "matrices": {"type": "array", "items": _MATRIX_SCHEMA},
        },
    },
}
