"""Span tracing installed from outside the engine.

``Tracer.install`` replaces every public function of the engine's modules
(and the few methods and helpers the per-layer metrics name) with a timing
wrapper.  The replacement is made on every module attribute bound to the
original function, so names pulled in by ``from``-imports, such as
``cli.groebner`` or ``closure.ideal_member``, are wrapped too.  A span
records its name, start, end, parent span and job; self time is a span's
duration minus the durations of its direct children.  ``uninstall`` puts
the originals back, so traced and untraced cycles can alternate.
"""

import inspect
import sys
from time import perf_counter

__all__ = ["Tracer", "layer_metrics", "PER_LAYER_UNITS"]

# module -> extra (non-__all__) attributes to wrap, as dotted names
_EXTRA = {
    "cli": ("_load_json",),
    "linalg": ("EchelonBasis.insert", "EchelonBasis.kernel"),
}
_MODULES = (
    "affine", "bounds", "cli", "closure", "jsonio", "linalg", "poly",
    "relations", "structure", "tower",
)


class _Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info", "children_s")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.info = None
        self.children_s = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.children_s


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []
        self._infos = _info_hooks()

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        info_hook = self._infos.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name, parent, self.job)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info_hook is not None:
                span.info = info_hook(args, kwargs, result)
            if parent is not None:
                # the hook's own time is charged to no span
                parent.children_s += perf_counter() - span.start
            return result

        return wrapper

    def install(self):
        """Wrap the engine's public functions everywhere they are bound."""
        originals = {}
        for short in _MODULES:
            module = sys.modules[f"zclosure.{short}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
            for dotted in _EXTRA.get(short, ()):
                owner_name, _, attr = dotted.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                fn = getattr(owner, attr)
                wrapped = self._wrap(f"{short}.{dotted}", fn)
                if owner_name:
                    self._patch(owner, attr, fn, wrapped)
                else:
                    originals[id(fn)] = (fn, wrapped)
        for name, module in list(sys.modules.items()):
            if name == "zclosure" or name.startswith("zclosure."):
                for attr, value in list(vars(module).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(module, attr, value, hit[1])
        cli = sys.modules["zclosure.cli"]
        self._patch(cli, "json", cli.json, _JsonShim(cli.json, self._wrap("cli.json.dumps", cli.json.dumps)))

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


class _JsonShim:
    """Stands in for the json module inside cli so dumps() is traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(self._module, name)


def _info_hooks():
    from zclosure import tower

    def groebner(args, kwargs, result):
        order = args[1] if len(args) > 1 else kwargs.get("order")
        kind = "grevlex" if order is None else order.kind
        gens = tuple(g for g in args[0] if g)
        bits = max(
            (
                max(int(c.numerator).bit_length(), int(c.denominator).bit_length())
                for g in result
                for c in g.terms.values()
            ),
            default=0,
        )
        return {"kind": kind, "in": len(gens), "out": len(result), "key": (kind, gens), "bits": bits}

    def lifted_span(args, kwargs, result):
        rows = result.echelon.rows
        nonzero = sum(1 for row in rows for x in row if x)
        return {"dim": result.dimension, "coords": result.echelon.length,
                "nonzero": nonzero, "entries": len(rows) * result.echelon.length}

    def tower_cmp(args, kwargs, result):
        if result != 0:
            return False
        a, b = tower._coerce(args[0]), tower._coerce(args[1])
        return a.key() != b.key()

    return {
        "poly.groebner": groebner,
        "closure.lifted_span": lifted_span,
        "linalg.EchelonBasis.insert": lambda a, k, r: bool(r),
        "linalg.EchelonBasis.kernel": lambda a, k, r: len(r),
        "tower.tower_cmp": tower_cmp,
    }


# Layer of a span's self time; spans without an entry inherit their parent's.
_LAYER = {
    "closure.lifted_span": "span",
    "linalg.EchelonBasis.kernel": "kernel",
    "closure.is_group_variety": "cert",
    "poly.ideal_member": "cert",
    "poly.ideal_equal": "cert",
    "closure.random_words_vanish": "fuzz",
    "affine.strongest_invariant": "affine",
    "cli.cli_main": "cli",
    "cli._load_json": "io",
    "cli.json.dumps": "io",
}
_PREFIX_LAYER = {"tower.": "tower", "bounds.": "bounds", "jsonio.": "io"}

PER_LAYER_UNITS = {
    "span.self_s": "s",
    "span.dim": "count",
    "span.coords": "count",
    "echelon.insert.calls": "count",
    "echelon.insert.s": "s",
    "echelon.useful_ratio": "ratio",
    "echelon.row_nonzero_frac": "ratio",
    "kernel.s": "s",
    "kernel.vectors": "count",
    "gb.grevlex.calls": "count",
    "gb.grevlex.s": "s",
    "gb.grevlex.in_gens": "count",
    "gb.grevlex.out_gens": "count",
    "gb.grevlex.repeat_calls": "count",
    "nf.calls": "count",
    "gb.coeff_bits_max": "bits",
    "gb.elim.calls": "count",
    "gb.elim.s": "s",
    "gb.elim.in_gens": "count",
    "gb.elim.out_gens": "count",
    "cert.s": "s",
    "member.calls": "count",
    "equal.s": "s",
    "fuzz.s": "s",
    "affine.self_s": "s",
    "bounds.s": "s",
    "tower.cmp.calls": "count",
    "tower.cmp.undecided": "count",
    "io.s": "s",
    "out_bytes": "bytes",
    "share.span": "ratio",
    "share.kernel": "ratio",
    "share.gb.grevlex": "ratio",
    "share.gb.elim": "ratio",
    "share.cert": "ratio",
    "share.fuzz": "ratio",
    "share.tower": "ratio",
    "share.io": "ratio",
    "trace.overhead": "ratio",
}


def _layer(span, cache):
    if span in cache:
        return cache[span]
    name = span.name
    if name == "poly.groebner":
        layer = "gb." + span.info["kind"]
    elif name in _LAYER:
        layer = _LAYER[name]
    else:
        layer = next((v for p, v in _PREFIX_LAYER.items() if name.startswith(p)), None)
        if layer is None:
            layer = _layer(span.parent, cache) if span.parent is not None else "other"
    cache[span] = layer
    return layer


def _outermost(spans, predicate):
    """Spans matching predicate that have no matching ancestor."""
    out = []
    for s in spans:
        if predicate(s.name):
            p = s.parent
            while p is not None and not predicate(p.name):
                p = p.parent
            if p is None:
                out.append(s)
    return out


def layer_metrics(spans, jobs, out_bytes, overhead):
    """Per-layer metrics from the spans of `jobs` traced jobs (per-job means)."""
    per_job = lambda x: x / jobs
    mean = lambda total, count: total / count if count else 0.0
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    get = lambda name: by_name.get(name, [])
    total = lambda name: sum(s.duration for s in get(name))
    self_total = lambda name: sum(s.self_s for s in get(name))

    spans_ls = get("closure.lifted_span")
    inserts = get("linalg.EchelonBasis.insert")
    gb = {"grevlex": [], "elim": []}
    for s in get("poly.groebner"):
        gb.setdefault(s.info["kind"], []).append(s)
    seen, repeats = set(), 0
    for s in get("poly.groebner"):
        key = (s.job, s.info["key"])
        repeats += key in seen
        seen.add(key)

    cache = {}
    layer_self = {}
    for s in spans:
        layer = _layer(s, cache)
        layer_self[layer] = layer_self.get(layer, 0.0) + s.self_s
    job_time = total("cli.cli_main")

    m = {
        "span.self_s": per_job(self_total("closure.lifted_span")),
        "span.dim": mean(sum(s.info["dim"] for s in spans_ls), len(spans_ls)),
        "span.coords": mean(sum(s.info["coords"] for s in spans_ls), len(spans_ls)),
        "echelon.insert.calls": per_job(len(inserts)),
        "echelon.insert.s": per_job(total("linalg.EchelonBasis.insert")),
        "echelon.useful_ratio": mean(sum(s.info for s in inserts), len(inserts)),
        "echelon.row_nonzero_frac": mean(
            sum(s.info["nonzero"] for s in spans_ls), sum(s.info["entries"] for s in spans_ls)
        ),
        "kernel.s": per_job(total("linalg.EchelonBasis.kernel")),
        "kernel.vectors": per_job(sum(s.info for s in get("linalg.EchelonBasis.kernel"))),
        "gb.grevlex.repeat_calls": per_job(repeats),
        "nf.calls": per_job(len(get("poly.normal_form"))),
        "gb.coeff_bits_max": max((s.info["bits"] for s in get("poly.groebner")), default=0),
        "cert.s": per_job(self_total("closure.is_group_variety")),
        "member.calls": per_job(len(get("poly.ideal_member"))),
        "equal.s": per_job(self_total("poly.ideal_equal")),
        "fuzz.s": per_job(total("closure.random_words_vanish")),
        "affine.self_s": per_job(self_total("affine.strongest_invariant")),
        "bounds.s": per_job(sum(s.duration for s in _outermost(spans, lambda n: n.startswith("bounds.")))),
        "tower.cmp.calls": per_job(len(get("tower.tower_cmp"))),
        "tower.cmp.undecided": per_job(sum(s.info for s in get("tower.tower_cmp"))),
        "io.s": per_job(sum(s.duration for s in _outermost(spans, lambda n: _LAYER.get(n) == "io" or n.startswith("jsonio.")))),
        "out_bytes": per_job(out_bytes),
        "trace.overhead": overhead,
    }
    for kind in ("grevlex", "elim"):
        calls = gb[kind]
        m[f"gb.{kind}.calls"] = per_job(len(calls))
        m[f"gb.{kind}.s"] = per_job(sum(s.duration for s in calls))
        m[f"gb.{kind}.in_gens"] = mean(sum(s.info["in"] for s in calls), len(calls))
        m[f"gb.{kind}.out_gens"] = mean(sum(s.info["out"] for s in calls), len(calls))
    for layer in ("span", "kernel", "gb.grevlex", "gb.elim", "cert", "fuzz", "tower", "io"):
        m[f"share.{layer}"] = mean(layer_self.get(layer, 0.0), job_time)
    return {name: m[name] for name in PER_LAYER_UNITS}
