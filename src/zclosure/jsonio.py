"""JSON wire formats and human-readable polynomial text.

Rationals are strings "p/q" (or "p"), matrices are row-major string grids,
polynomials are coefficient/exponent records, and tower values serialize as
nested nodes.  Text renderings of polynomials are round-trippable.
"""

import json
import re
from fractions import Fraction

from .affine import AffineProgram
from .bounds import BoundReport
from .closure import GeneratorSet
from .linalg import QMatrix
from .poly import GREVLEX, Ideal, Poly
from .tower import TowerNumber, tower_add, tower_exact, tower_fact, tower_mul, tower_pow
from ._rat import rat

__all__ = [
    "rat_to_str",
    "rat_from_str",
    "matrix_to_json",
    "matrix_from_json",
    "generators_to_json",
    "generators_from_json",
    "gl_variable_names",
    "poly_to_json",
    "poly_from_json",
    "ideal_to_json",
    "ideal_from_json",
    "poly_to_text",
    "poly_from_text",
    "tower_to_json",
    "tower_from_json",
    "bound_report_to_json",
    "bound_report_from_json",
    "affine_program_from_json",
    "affine_program_to_json",
    "SCHEMAS",
]


def rat_to_str(q) -> str:
    return str(rat(q))


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


def generators_to_json(gens: GeneratorSet):
    return {"n": gens.n, "generators": [matrix_to_json(g) for g in gens.gens]}


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


def default_names(arity: int):
    return [f"z{i + 1}" for i in range(arity)]


def poly_to_json(p: Poly):
    return [
        {"coeff": rat_to_str(c), "exps": list(mono)}
        for mono, c in p.sorted_terms(GREVLEX, reverse=True)
    ]


def poly_from_json(terms, arity: int) -> Poly:
    return Poly(
        arity, {tuple(t["exps"]): rat_from_str(t["coeff"]) for t in terms}
    )


def ideal_to_json(ideal: Ideal, names=None):
    names = names or default_names(ideal.arity)
    return {
        "arity": ideal.arity,
        "variables": list(names),
        "generators": [poly_to_json(g) for g in ideal.generators],
        "text": [poly_to_text(g, names) for g in ideal.generators],
    }


def ideal_from_json(obj) -> Ideal:
    arity = obj["arity"]
    return Ideal(arity, [poly_from_json(t, arity) for t in obj["generators"]])


def poly_to_text(p: Poly, names) -> str:
    if not p.terms:
        return "0"
    bits = []
    for mono, c in p.sorted_terms(GREVLEX, reverse=True):
        factors = [
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e
        ]
        body = "*".join(factors)
        mag = abs(c)
        if body and mag == 1:
            piece = body
        elif body:
            piece = f"{rat_to_str(mag)}*{body}"
        else:
            piece = rat_to_str(mag)
        if not bits:
            bits.append(piece if c > 0 else f"-{piece}")
        else:
            bits.append(f"+ {piece}" if c > 0 else f"- {piece}")
    return " ".join(bits)


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+(?:/\d+)?)?(?:\*?(?P<body>[A-Za-z]\w*(?:\^\d+)?(?:\*[A-Za-z]\w*(?:\^\d+)?)*))?$")


def poly_from_text(text: str, names) -> Poly:
    index = {name: i for i, name in enumerate(names)}
    arity = len(names)
    text = text.strip()
    if text == "0":
        return Poly.zero(arity)
    # normalize into signed terms
    text = text.replace("- ", "+ -").replace("+ ", "+ ")
    chunks = [c.strip() for c in text.split("+") if c.strip()]
    terms = {}
    for chunk in chunks:
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:].strip()
        m = _TERM_RE.match(chunk.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("body") is None):
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff = rat(m.group("coeff")) if m.group("coeff") else rat(1)
        if neg:
            coeff = -coeff
        mono = [0] * arity
        body = m.group("body")
        if body:
            for factor in body.split("*"):
                if "^" in factor:
                    name, exp = factor.split("^")
                    mono[index[name]] += int(exp)
                else:
                    mono[index[factor]] += 1
        key = tuple(mono)
        terms[key] = terms.get(key, rat(0)) + coeff
    return Poly(arity, terms)


def tower_to_json(t: TowerNumber):
    if t.kind == "exact":
        return {"kind": "exact", "value": str(Fraction(t.value))}
    if t.kind == "pow":
        return {"kind": "pow", "base": tower_to_json(t.base), "exp": tower_to_json(t.exp)}
    if t.kind == "factorial":
        return {"kind": "factorial", "arg": tower_to_json(t.arg)}
    if t.kind == "mul":
        return {
            "kind": "mul",
            "coeff": str(t.coeff),
            "factors": [tower_to_json(f) for f in t.factors],
        }
    return {
        "kind": "add",
        "const": str(t.const),
        "terms": [tower_to_json(x) for x in t.terms],
    }


def tower_from_json(obj) -> TowerNumber:
    """The tower of a node record, built by the tower constructors: the
    result is canonical, and exact parts collapse."""
    kind = obj["kind"]
    if kind == "exact":
        return tower_exact(Fraction(obj["value"]))
    if kind == "pow":
        return tower_pow(tower_from_json(obj["base"]), tower_from_json(obj["exp"]))
    if kind == "factorial":
        return tower_fact(tower_from_json(obj["arg"]))
    if kind == "mul":
        return tower_mul(Fraction(obj["coeff"]), *map(tower_from_json, obj["factors"]))
    if kind == "add":
        return tower_add(Fraction(obj["const"]), *map(tower_from_json, obj["terms"]))
    raise ValueError(f"unknown tower node kind {kind!r}")


def bound_report_to_json(report: BoundReport):
    bounds = {}
    for name, value in report.bounds.items():
        if value.is_exact:
            bounds[name] = {"form": "exact", "value": str(Fraction(value.value))}
        else:
            bounds[name] = {
                "form": "tower",
                "expr": tower_to_json(value),
                "pretty": value.pretty(),
            }
    return {"params": dict(report.params), "bounds": bounds}


def bound_report_from_json(obj) -> BoundReport:
    bounds = {}
    for name, rec in obj["bounds"].items():
        if rec["form"] == "exact":
            bounds[name] = tower_exact(Fraction(rec["value"]))
        else:
            bounds[name] = tower_from_json(rec["expr"])
    return BoundReport(obj["params"], bounds)


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


def affine_program_to_json(program: AffineProgram):
    return {
        "num_vars": program.num_vars,
        "updates": [
            {"A": matrix_to_json(a), "b": [rat_to_str(x) for x in b]}
            for a, b in program.updates
        ],
    }


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
