import gc
import json
import math
import random

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from zclosure.affine import AffineProgram
from zclosure.bounds import general_index_bound, chain_bounds, closure_degree_bound
from zclosure.closure import GeneratorSet
from zclosure.errors import ResourceLimit
from zclosure.jsonio import (
    SCHEMAS,
    affine_program_from_json,
    bound_report_to_json,
    dumps_indented,
    generators_from_json,
    gl_variable_names,
    ideal_to_json,
    matrix_from_json,
    matrix_to_json,
    poly_to_json,
    poly_to_text,
    rat_from_str,
    rat_to_str,
    tower_to_json,
)
from zclosure.linalg import QMatrix
from zclosure.poly import Ideal, Poly
from zclosure.tower import tower_cmp
from zclosure._rat import rat

from oracles import (
    affine_program_to_json,
    bound_report_from_json,
    generators_to_json,
    ideal_from_json,
    poly_from_json,
    poly_from_text,
    tower_from_json,
)


def qm(rows):
    return QMatrix.from_rows([[rat(e) for e in r] for r in rows])


class TestRationals:
    def test_integer_renders_bare(self):
        assert rat_to_str(rat(5)) == "5"
        assert rat_to_str(rat(-3, 1)) == "-3"

    def test_fraction(self):
        assert rat_to_str(rat(-7, 2)) == "-7/2"
        assert rat_from_str("-7/2") == rat(-7, 2)
        assert rat_from_str("3/4") == rat(3, 4)
        assert rat_from_str("1e3") == rat(1000)
        assert rat_from_str("5e-2") == rat(1, 20)
        assert rat_from_str("1e10000") == rat(10**10000)
        with pytest.raises(ResourceLimit):
            rat_from_str("1e-10001")

    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(50):
            q = rat(rng.randint(-999, 999), rng.randint(1, 999))
            assert rat_from_str(rat_to_str(q)) == q


class TestMatrices:
    def test_round_trip(self):
        m = qm([[1, "1/2"], ["-3", 0]])
        as_json = matrix_to_json(m)
        assert as_json == [["1", "1/2"], ["-3", "0"]]
        jsonschema.validate(as_json, SCHEMAS["matrix"])
        assert matrix_from_json(as_json) == m

    def test_generators(self):
        gens = GeneratorSet([qm([[1, 1], [0, 1]]), qm([[1, 0], [1, 1]])])
        obj = generators_to_json(gens)
        jsonschema.validate(obj, SCHEMAS["generators"])
        back = generators_from_json(obj)
        assert back.gens == gens.gens


class TestPolynomials:
    def test_json_round_trip(self):
        x, y = [Poly.variable(i, 2) for i in range(2)]
        p = 3 * x**2 * y - rat(1, 2) * y + 7
        terms = poly_to_json(p)
        assert poly_from_json(terms, 2) == p

    def test_text_round_trip(self):
        names = gl_variable_names(2)
        v = [Poly.variable(i, 5) for i in range(5)]
        x11, x12, x21, x22, y = v
        samples = [
            y - 1,
            x11 * x22 - x12 * x21 - 1,
            x11 * x22**5 - 1,
            -x12 + rat(3, 2) * x21 - rat(1, 3),
            Poly.zero(5),
            Poly.const(5, -2),
            x11**2 - 2 * x11 * y + y**2,
        ]
        for p in samples:
            text = poly_to_text(p, names)
            assert poly_from_text(text, names) == p, text

    def test_ideal_round_trip(self):
        v = [Poly.variable(i, 5) for i in range(5)]
        ideal = Ideal(5, [v[4] - 1, v[0] * v[3] - v[1] * v[2] - 1])
        obj = ideal_to_json(ideal, gl_variable_names(2))
        jsonschema.validate(obj, SCHEMAS["ideal"])
        back = ideal_from_json(obj)
        assert back.generators == ideal.generators

    def test_text_matches_convention(self):
        v = [Poly.variable(i, 5) for i in range(5)]
        p = v[0] * v[3] - v[1] * v[2] - 1
        # grevlex descending term order: x12*x21 leads x11*x22
        assert poly_to_text(p, gl_variable_names(2)) == "-x12*x21 + x11*x22 - 1"


class TestTowerSerialization:
    def test_exact(self):
        from zclosure.tower import tower_exact

        t = tower_exact(40320)
        assert tower_from_json(tower_to_json(t)) == t

    def test_symbolic_structure(self):
        t = general_index_bound(1)
        obj = tower_to_json(t)
        jsonschema.validate(obj, SCHEMAS["bound_report"]["properties"]["bounds"][
            "additionalProperties"
        ]["properties"]["expr"])
        back = tower_from_json(obj)
        assert back == t
        assert tower_cmp(back, t) == 0

    def test_decodes_to_canonical_node(self):
        from zclosure.tower import tower_exact, tower_fact

        f = tower_fact(10**9)
        one_factor = {"kind": "mul", "coeff": "1", "factors": [tower_to_json(f)]}
        assert tower_from_json(one_factor) == f
        exact_pow = {"kind": "pow", "base": tower_to_json(tower_exact(2)),
                     "exp": tower_to_json(tower_exact(3))}
        assert tower_from_json(exact_pow) == tower_exact(8)

    def test_bound_report_round_trip(self):
        for report in (closure_degree_bound(1, 2, 1), chain_bounds(2)):
            obj = bound_report_to_json(report)
            jsonschema.validate(obj, SCHEMAS["bound_report"])
            back = bound_report_from_json(obj)
            assert back == report
            assert json.loads(json.dumps(obj)) == obj

    def test_shared_subtree_rendered_once(self):
        # the unipotent degree bound recurs inside the general index bound;
        # within one report each node object gets one record, reused
        report = closure_degree_bound(2, 3, 2)
        obj = bound_report_to_json(report)
        towers = [v for v in report.bounds.values() if not v.is_exact]
        exprs = [rec["expr"] for rec in obj["bounds"].values() if rec["form"] == "tower"]
        assert json.dumps(exprs) == json.dumps([tower_to_json(t) for t in towers])

        def distinct(roots, children):
            """The objects reachable from roots, by identity."""
            seen, stack = {}, list(roots)
            while stack:
                x = stack.pop()
                if id(x) not in seen:
                    seen[id(x)] = x
                    stack.extend(children(x))
            return seen

        def node_children(n):
            return [c for c in (n.base, n.exp, n.arg) if c is not None] + list(n.factors or n.terms or ())

        def record_children(r):
            return [r[k] for k in ("base", "exp", "arg") if k in r] + r.get("factors", r.get("terms", []))

        nodes = distinct(towers, node_children)
        records = distinct(exprs, record_children)
        # fewer records than the rendered text has nodes: some are shared
        assert len(records) == len(nodes) < sum(json.dumps(e).count('"kind"') for e in exprs)


class TestAffineProgram:
    def test_round_trip(self):
        program = AffineProgram(
            2, [(qm([[0, -1], [1, 0]]), [rat(0), rat(1, 2)])]
        )
        obj = affine_program_to_json(program)
        jsonschema.validate(obj, SCHEMAS["affine_program"])
        back = affine_program_from_json(obj)
        assert back.num_vars == 2
        assert back.updates[0][0] == program.updates[0][0]
        assert back.updates[0][1] == program.updates[0][1]


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**60, max_value=10**400).map(lambda k: k * (-1) ** (k % 2))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
    | st.text(st.characters(max_codepoint=0x1F), max_size=5)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


class TestIndentedWriter:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, obj):
        assert dumps_indented(obj) == json.dumps(obj, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(json_values)
    def test_shared_object(self, obj):
        # one object at two places, as a tower record shared by two bounds
        doc = {"a": obj, "b": [obj, {"c": obj}], "d": (obj, [])}
        assert dumps_indented(doc) == json.dumps(doc, indent=2)

    def test_edge_values(self):
        doc = {
            "": [{}, [], [[]], {"x": {}}],
            "é\u2028\x00\"\\": ["\ud83d\ude00", "\x7f\x1f"],
            "ints": [0, -1, 10**500, -(10**500), True, False, None],
            "floats": [0.0, -0.0, 1e300, math.nan, math.inf, -math.inf],
        }
        assert dumps_indented(doc) == json.dumps(doc, indent=2)
        for scalar in ("s", 7, 1.5, None, True, [], {}):
            assert dumps_indented(scalar) == json.dumps(scalar, indent=2)

    def test_refuses_non_string_keys_and_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_indented({1: "a key json would write as a string"})
        with pytest.raises(TypeError):
            dumps_indented([object()])

    def test_bounds_payload_leaves_no_cycle(self):
        payload = bound_report_to_json(closure_degree_bound(3, 4, 3))
        gc.collect()
        gc.disable()
        try:
            text = dumps_indented(payload)
            found = gc.collect()
        finally:
            gc.enable()
        assert text == json.dumps(payload, indent=2)
        assert found == 0
