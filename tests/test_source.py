import ast
import os
import pathlib
import re
import subprocess
import sys

import driftboost

PACKAGE = pathlib.Path(driftboost.__file__).parent
TESTS = pathlib.Path(__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
REPO = TESTS.parent


def test_no_assert_statements():
    """Library invariants raise exceptions: `assert` vanishes under
    python -O."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_harness_and_cli_load_no_scipy():
    """train, eval and the other CLI commands solve no LP, so loading
    them must not load the LP solver's package."""
    code = ("import sys, driftboost.harness, driftboost.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "[]\n"


def unused_imports(tree):
    """(line, name) of every imported name that the module never reads
    and does not list in __all__."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_detected():
    tree = ast.parse("import os\nimport a.b\nfrom x import y as z, w\n"
                     "__all__ = ['w']\nprint(a)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "z")]


def test_no_unused_imports():
    found = [f"{path.parent.name}/{path.name}:{line} {name}"
             for path in SOURCES
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


def function_imports(tree):
    """(line, function) of every import statement inside a function."""
    return sorted({(node.lineno, fn.name)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_function_imports_detected():
    tree = ast.parse("import os\ndef f():\n    from x import y\n    return y\n"
                     "class A:\n    def g(self):\n        import z\n")
    assert function_imports(tree) == [(3, "f"), (7, "g")]


def test_no_imports_inside_functions():
    """The package imports at module level; a function-local import
    hides a dependency between modules."""
    found = [f"{path.name}:{line} in {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in function_imports(ast.parse(path.read_text()))]
    assert found == []


def function_classes(tree):
    """(line, function) of every class statement inside a function."""
    return sorted({(node.lineno, fn.name)
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, ast.ClassDef)})


def test_function_classes_detected():
    tree = ast.parse("class A:\n    def f(self):\n        class B:\n"
                     "            pass\ndef g():\n    def h():\n"
                     "        class C:\n            pass\n")
    assert function_classes(tree) == [(3, "f"), (7, "g"), (7, "h")]


def test_no_classes_inside_functions():
    """A class made per call is cyclic garbage: its instances, methods
    and closures keep whatever they reference alive until the cycle
    collector runs."""
    found = [f"{path.name}:{line} in {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name in function_classes(ast.parse(path.read_text()))]
    assert found == []


# protocol overrides take the arguments their callers pass, read or not
PROTOCOL = {"route", "predict_all", "__call__"}


def unused_parameters(tree):
    """(line, function, parameter) of every parameter, self and cls
    aside, that its function never reads; protocol overrides are
    exempt."""
    found = []
    for fn in ast.walk(tree):
        if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                or fn.name in PROTOCOL):
            continue
        a = fn.args
        params = [p for p in (*a.posonlyargs, *a.args, a.vararg,
                              *a.kwonlyargs, a.kwarg)
                  if p is not None and p.arg not in ("self", "cls")]
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [(fn.lineno, fn.name, p.arg) for p in params
                  if p.arg not in read]
    return found


def test_unused_parameters_detected():
    tree = ast.parse("def plurality_predict(F, dataset):\n"
                     "    return F.argmax(axis=1) + 1\n"
                     "def f(a, *b, c, **d):\n    a = c\n"
                     "class A:\n    def g(self, x):\n        return x\n"
                     "    def __call__(self, dataset, C):\n        return C\n")
    assert unused_parameters(tree) == [(1, "plurality_predict", "dataset"),
                                       (3, "f", "a"), (3, "f", "b"),
                                       (3, "f", "d")]


def test_no_unused_parameters():
    """A parameter that no code reads misleads every caller that fills
    it in."""
    found = [f"{path.name}:{line} {name}({param})"
             for path in sorted(PACKAGE.glob("*.py"))
             for line, name, param in unused_parameters(
                 ast.parse(path.read_text()))]
    assert found == []


def void_views(tree):
    """Line of every reference to np.void (numpy.void): the row-as-bytes
    view that a packed int64 key replaces."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "void"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy"))


def test_void_views_detected():
    tree = ast.parse("import numpy as np\nv = a.view(np.dtype((np.void, 8)))\n"
                     "w = numpy.void\nx = a.void\n")
    assert void_views(tree) == [2, 3]


def test_no_void_views():
    """Batched potentials key each state by one int64; a second key
    representation (rows viewed as np.void bytes) is not kept."""
    found = [f"{path.name}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in void_views(ast.parse(path.read_text()))]
    assert found == []


def unread_definitions(trees, text):
    """(module, name) of every top-level function and class of the
    modules in trees that no module reads, as a Name or an Attribute,
    and that text does not name."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    return [(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name not in read
            and not re.search(rf"\b{node.name}\b", text)]


def test_test_only_definitions_detected():
    trees = {"a": ast.parse("def f():\n    return g()\ndef g():\n    pass\n"
                            "class A:\n    def method(self):\n        pass\n"
                            "def wrapped():\n    pass\n"),
             "b": ast.parse("import a\na.A()\ndef stored():\n    pass\n"
                            "stored = a.f = 1\n")}
    assert unread_definitions(trees, "wrap('a', 'wrapped')") == [
        ("a", "f"), ("b", "stored")]


def test_no_test_only_definitions():
    """Every function and class of the package serves the package: some
    module of it reads the name, or the benchmark or the project file
    names it (the benchmark wraps functions by name). Code that only the
    tests call belongs in the tests."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    text = "\n".join(path.read_text() for path in (
        *sorted((REPO / "perfbench").rglob("*.py")), REPO / "pyproject.toml"))
    assert unread_definitions(trees, text) == []
