"""Every import in the engine's modules is used or re-exported, every
module-level private name is read somewhere in the engine, every __all__
entry names an attribute of its module, and the README's table of
constants lists every public integer constant of the engine."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "zclosure"
README = SRC.parent.parent / "README.md"


def unused_imports(source):
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scan_finds_unused_import():
    source = "import math\nfrom os import path, sep\n__all__ = ['sep']\nx = math.pi\n"
    assert unused_imports(source) == ["path"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_private_names(sources):
    """Module-level private names that no code in the sources reads.

    sources maps module names to their text.  A private name (one leading
    underscore) is read when its module loads it outside its own definition,
    another module imports it from that module, or any module reads an
    attribute of that name.
    """
    defined = []
    read = set()
    attributes = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                names = set()
            defined.extend(
                (module, n) for n in names if n.startswith("_") and not n.startswith("__")
            )
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in names:
                        read.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, a.name) for a in node.names)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in read and name not in attributes
    )


def test_scan_finds_orphaned_private_name():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "def _used():\n    return _LIMIT\n"
            "def _orphan(k):\n    return _orphan(k - 1)\n"
            "class _Gone:\n    pass\n"
            "def _imported():\n    pass\n"
            "def f():\n    return _used()\n"
        ),
        "b": "from .a import _imported\n_imported()\n",
    }
    assert orphaned_private_names(sources) == ["a._Gone", "a._orphan"]


def test_no_orphaned_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def unexported_unread_names(sources):
    """Public module-level functions and classes that no __all__ lists and
    no code in the sources reads.

    sources maps module names to their text.  A name is read when its module
    loads it outside its own definition, another module imports it from that
    module, or any module reads an attribute of that name.  Such a name
    serves only code outside the sources, such as tests.
    """
    defined = []
    exported = set()
    read = set()
    attributes = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined.append((module, stmt.name))
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported.update(ast.literal_eval(stmt.value))
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id != own:
                        read.add((module, node.id))
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    read.update((node.module, a.name) for a in node.names)
    return sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in exported and (module, name) not in read and name not in attributes
    )


def test_scan_finds_unexported_unread_name():
    sources = {
        "a": (
            "__all__ = ['api']\n"
            "def api():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def only_tests(k):\n    return only_tests(k - 1)\n"
            "class Orphan:\n    pass\n"
            "def imported():\n    pass\n"
            "def _private():\n    pass\n"
        ),
        "b": "from .a import imported\nimported()\n",
    }
    assert unexported_unread_names(sources) == ["a.Orphan", "a.only_tests"]


def test_no_unexported_unread_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unexported_unread_names(sources) == []


@pytest.mark.parametrize(
    "name",
    ["zclosure"] + [f"zclosure.{p.stem}" for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"],
)
def test_every_export_resolves(name):
    # tracers and star-imports getattr every __all__ entry
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def public_int_constants():
    """(module, name) of every module-level public int the engine assigns."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"zclosure.{path.stem}")
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("_"):
                        value = getattr(module, target.id)
                        if isinstance(value, int) and not isinstance(value, bool):
                            out.append((path.stem, target.id))
    return out


def readme_constant_rows():
    """{(module, name)} named by the rows of the README's constants table,
    whose first two cells list the constants and their module."""
    rows = set()
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 3 and cells[0].startswith("`") and cells[1].startswith("`"):
            module = cells[1].strip("`")
            rows.update((module, name.strip(" `")) for name in cells[0].split(","))
    return rows


def test_readme_lists_every_int_constant():
    constants = public_int_constants()
    assert ("tower", "DEFAULT_EXACT_BITS") in constants
    assert [c for c in constants if c not in readme_constant_rows()] == []
