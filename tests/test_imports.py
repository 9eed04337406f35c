"""Every imported name is used, every private name the package defines is
referenced in it, and its modules import each other in layers: ``ast``
scans over the package, the tests and the demos, standing in for a
linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # an __init__.py imports to re-export
    paths = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py")) if p.name != "__init__.py"]
    assert [u for p in paths for u in _unused_imports(p)] == []


def _private_definitions(tree):
    # module-level private functions, classes and assignments, and the
    # private methods of module-level classes (dunders are not private)
    names = {}
    for node in tree.body:
        defs = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
        for d in defs:
            names[d.name] = d.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    names[t.id] = node.lineno
    return {n: line for n, line in names.items()
            if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    refs = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return refs | {n.attr for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_no_dead_private_names():
    # a private name is the package's own business: defined in src/ and
    # read nowhere in src/, it is dead
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src").rglob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    dead = [f"{p.relative_to(ROOT)}:{line}: {name}"
            for p, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in used]
    assert dead == []


def test_no_dead_constants():
    # a module-level UPPER_CASE constant defined in src/ and read nowhere
    # in src/ is dead, whatever the tests read of it
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "src").rglob("*.py"))}
    used = set().union(*map(_references, trees.values()))
    dead = [f"{p.relative_to(ROOT)}:{node.lineno}: {t.id}"
            for p, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(t, ast.Name) and t.id.isupper() and t.id not in used]
    assert dead == []


# each module imports only from the layers before its own
LAYERS = (("graphs", "errors"), ("dirichlet", "winding"),
          ("covering", "kuramoto"), ("structures",), ("serialize", "svg"),
          ("cli",))
# the modules that may import scipy, at load or inside a function: none,
# since every command and the generic structures solves run on numpy alone
SCIPY_USERS = set()
# the modules that may read a ``kind`` attribute: every layer reads a
# graph's fractal record, ``g.fractal``, and none asks which fractal it is
KIND_READERS = {"graphs"}
# the modules that may read a graph's ``keys``: the key format is the graph
# build's own, and every other layer reads ``birth``, ids and cell tables
KEY_READERS = {"graphs"}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted((ROOT / "src" / "fractalsync").glob("*.py"))
            if p.name != "__init__.py"}


def _imports(tree):
    # (module, line) per import; the package's own modules by bare name,
    # as in "from .graphs import ..." and "from . import covering"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((alias.name, node.lineno) for alias in node.names)


def test_package_imports_follow_the_layers():
    layer = {m: k for k, names in enumerate(LAYERS) for m in names}
    modules = _modules()
    assert set(modules) == set(layer)
    upward = [f"{m}:{line}: {imp}" for m, tree in modules.items()
              for imp, line in _imports(tree)
              if imp in layer and layer[imp] >= layer[m]]
    assert upward == []


def test_only_the_solvers_import_scipy():
    # every file under src/, __init__.py included, and every import in it,
    # inside a function or not: the static twin of test_cli's
    # scipy-blocked interpreter
    users = {p.stem for p in sorted((ROOT / "src").rglob("*.py"))
             if any(imp.split(".")[0] == "scipy"
                    for imp, _ in _imports(ast.parse(p.read_text())))}
    assert users <= SCIPY_USERS, sorted(users - SCIPY_USERS)


def _module_level_imports(node):
    # the imports that run when the module loads: everything outside a
    # function body (class bodies run at load too)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from _imports(child)
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
            yield from _module_level_imports(child)


def test_scipy_loads_only_inside_functions():
    # importing the package must not import scipy; the static twin of
    # test_cli's fresh-interpreter check
    found = [f"{p.relative_to(ROOT)}:{line}: {imp}"
             for p in sorted((ROOT / "src").rglob("*.py"))
             for imp, line in _module_level_imports(ast.parse(p.read_text()))
             if imp.split(".")[0] == "scipy"]
    assert found == []


def test_only_the_kind_readers_read_kind():
    # an array's dtype.kind is not a graph's
    readers = {m for m, tree in _modules().items()
               if any(isinstance(n, ast.Attribute) and n.attr == "kind"
                      and isinstance(n.ctx, ast.Load)
                      and not (isinstance(n.value, ast.Attribute)
                               and n.value.attr == "dtype")
                      for n in ast.walk(tree))}
    assert readers <= KIND_READERS, sorted(readers - KIND_READERS)


def test_only_the_key_readers_read_keys():
    # a called ``.keys()`` is a mapping's, not a graph's
    def reads_keys(tree):
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        return any(isinstance(n, ast.Attribute) and n.attr == "keys"
                   and isinstance(n.ctx, ast.Load) and id(n) not in called
                   for n in ast.walk(tree))

    found = {m for m, tree in _modules().items() if reads_keys(tree)}
    assert found <= KEY_READERS, sorted(found - KEY_READERS)
