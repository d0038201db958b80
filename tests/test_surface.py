"""The public surface is what the program's consumers reach.

Every name a module of the package lists in ``__all__``, and every name
``dirac88/__init__`` re-exports, is referenced outside its own definition: in
the package's code (a name, an attribute or a string, such as the state types
``cli`` maps to builders), the README (its library sketch, or a code span of
its text), the acceptance criteria, the benchmark's span targets or the console
script.  So is every public method and property of a public class, as
``Class.name``, through an attribute or a string of that name (a bare name,
such as the builtin ``reversed``, reaches no method), and every annotated
field of a public class, which needs a reader: an attribute load or a string
(an assignment or a constructor keyword writes it).  A reference from inside
a public definition that is itself unreached does not count, and neither do
docstrings and ``__all__``.  And no module of the package imports a name it
never uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dirac88"

# Public with no consumer in code, each for a claim of the paper.
KEPT = {
    # the abstract: "The four-current in the Maxwell equations and the mass in
    # the electronic Dirac equation also force the electromagnetic field to
    # transform differently to the electronic field"; the covariance tests of
    # tests/test_lorentz.py pin this law against em_transform_matrix
    "electron_transform_matrix",
}


def _not_references(tree: ast.AST) -> set[int]:
    """ids of the string constants that name nothing: docstrings and ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
        if _is_all(node):
            out.update(id(item) for item in ast.walk(node.value))
    return out


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)


def _defined(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def _methods(cls: ast.ClassDef):
    """The public methods and properties of a class definition."""
    return [stmt for stmt in cls.body if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")]


def _fields(cls: ast.ClassDef) -> list[str]:
    """The public annotated fields of a class definition."""
    return [stmt.target.id for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name) and not stmt.target.id.startswith("_")]


def _references(tree: ast.AST):
    """(name, is an attribute or a string, enclosing definitions) for every Name,
    Attribute and string constant of ``tree`` that can name something; the
    enclosing definitions are the top-level one and, inside a class, its method
    as ``Class.method``."""
    skip = _not_references(tree)
    for stmt in tree.body:
        where = _defined(stmt)
        parts = [(stmt, (where,))]
        if isinstance(stmt, ast.ClassDef):
            parts = [(method, (where, f"{where}.{method.name}")) for method in _methods(stmt)]
            parts += [(node, (where,)) for node in stmt.body if node not in _methods(stmt)]
            parts += [(node, (where,)) for node in stmt.decorator_list + stmt.bases]
        for part, enclosing in parts:
            for node in ast.walk(part):
                if isinstance(node, ast.Name):
                    yield node.id, False, enclosing
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    yield node.attr, True, enclosing
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in skip):
                    yield node.value, True, enclosing


def _readme_references() -> list[tuple[str, bool, tuple]]:
    readme = (ROOT / "README.md").read_text()
    head, rest = readme.split("```python\n", 1)
    sketch, tail = rest.split("```", 1)
    spans = re.findall(r"`([A-Za-z_][\w.]*)`", head + tail)
    return list(_references(ast.parse(sketch))) + [
        (part, True, ()) for span in spans for part in span.split(".")]


def _script_targets() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"[\w.]+:(\w+)"', section)


def _public_names() -> set[str]:
    """Every public name, and ``Class.member`` for each public method and field of a
    public class."""
    names, classes = set(), {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if _is_all(stmt):
                names.update(ast.literal_eval(stmt.value))
            if path.name == "__init__.py" and isinstance(stmt, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in stmt.names)
            if isinstance(stmt, ast.ClassDef):
                classes[stmt.name] = stmt
    return names | {f"{name}.{member}" for name in names & set(classes) for member in
                    [method.name for method in _methods(classes[name])] + _fields(classes[name])}


def unreached_public_names() -> list[str]:
    refs = []
    for path in PACKAGE.glob("*.py"):
        refs += _references(ast.parse(path.read_text()))
    refs += _readme_references()
    refs += _references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    refs += _references(ast.parse((ROOT / "bench" / "spans.py").read_text()))
    refs += [(name, False, ()) for name in _script_targets()]
    public = _public_names()
    dead: set[str] = set()
    while True:
        live = [(name, attribute) for name, attribute, where in refs if not dead & set(where)]
        names = {name for name, _ in live}
        attributes = {name for name, attribute in live if attribute}
        now = {name for name in public if name not in KEPT and not (
            name.rpartition(".")[2] in attributes if "." in name else name in names)}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_has_a_consumer():
    dead = unreached_public_names()
    assert not dead, f"public names that no consumer reaches: {', '.join(dead)}"
    assert KEPT <= _public_names()


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":   # its imports are the re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert not unused, f"imported and never used: {', '.join(unused)}"


# The package modules each module may import (README module map).  The oracle
# and the boost routes stay independent of the 8x8 evolution and of each other;
# ``cli`` and ``__init__`` (the re-exports) may import every module.
LAYERS = {
    "errors": set(),
    "algebra": {"errors"},
    "fields": {"algebra", "errors"},
    **dict.fromkeys(("spin", "lorentz", "evolution", "oracle"), {"algebra", "fields", "errors"}),
    "states": {"algebra", "fields", "errors", "evolution"},
}


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``from . import x`` and ``from .x import y`` name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dirac88"):
            module = node.module.partition(".")[2]
            out.update([module] if module else [alias.name for alias in node.names])
    return out


def test_modules_import_only_the_layers_below_them():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"cli", "__init__"}
    assert modules == set(LAYERS), "place each module of the package in LAYERS"
    crossing = {}
    for name, allowed in LAYERS.items():
        imported = _package_imports(ast.parse((PACKAGE / f"{name}.py").read_text()))
        if imported - allowed:
            crossing[name] = sorted(imported - allowed)
    assert not crossing, f"imports across the layers: {crossing}"


# Only ``cli`` and the serialisation of ``fields`` open or write files; every other
# module computes and returns values.
FILE_IO = {"open", "write_text", "write_bytes", "csv"}


def test_only_cli_and_fields_touch_files():
    touching = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in ("cli", "fields", "__init__"):
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        if names & FILE_IO:
            touching[path.stem] = sorted(names & FILE_IO)
    assert not touching, f"file I/O outside cli and fields: {touching}"
