"""Rules on the engine's source code, checked by walking its syntax trees."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "cdgl")


def _caught(node):
    """Names of the exception classes an except clause's type catches."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _caught(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _trees(src):
    """(path relative to src, syntax tree) of every Python file under src."""
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, src), ast.parse(fh.read(), path)


def broad_handlers(src=SRC):
    """file:line of every bare except and every handler of Exception or
    BaseException under src."""
    found = []
    for path, tree in _trees(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None or {"Exception", "BaseException"}
                    & set(_caught(node.type))):
                found.append("%s:%d" % (path, node.lineno))
    return found


def _sites(hit, src):
    """file:function of every node under src for which hit is true, by the
    innermost function that holds it."""
    found = []

    def visit(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if hit(child):
                found.append("%s:%s" % (path, func))
            visit(child, path, func)

    for path, tree in _trees(src):
        visit(tree, path, None)
    return found


def raises_of(exc_name, src=SRC):
    """file:function of every raise of exc_name under src."""
    def hit(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc_name in _caught(exc)
    return _sites(hit, src)


def calls_of(name, src=SRC):
    """file:function of every call of name, or of an attribute name, under src."""
    return _sites(lambda node: isinstance(node, ast.Call) and name in _caught(node.func),
                  src)


def imports_of(module, src=SRC):
    """file:line of every import of module, or of a submodule, under src."""
    found = []
    for path, tree in _trees(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n == module or n.startswith(module + ".") for n in names):
                found.append("%s:%d" % (path, node.lineno))
    return found


def true_divisions(src=SRC):
    """file:line of every true division, / or /=, under src."""
    found = []
    for path, tree in _trees(src):
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.Div):
                found.append("%s:%d" % (path, node.lineno))
    return found


def test_no_broad_exception_handlers():
    # an engine bug must fail loudly; a handler that catches everything
    # turns it into a diagnostic or a flag that reads as success
    assert os.path.isfile(os.path.join(SRC, "dgl.py"))
    assert broad_handlers() == []


def test_divergence_raised_only_by_the_series_helper():
    # every series that sums iterates of a nilpotent operator goes through
    # dgl.nilpotent_series, which alone decides when one diverges
    assert raises_of("DivergenceError") == ["dgl.py:nilpotent_series"]


def test_no_dataclasses_import():
    # every command starts a fresh interpreter: the dataclasses module pulls
    # in inspect, and each decorated class execs its generated methods, so the
    # engine's records are plain classes (FrozenRecord for the value types)
    assert imports_of("fractions") != []
    assert imports_of("dataclasses") == []


def test_no_true_division(tmp_path):
    # an exact scalar is an int when it is integral, and int / int is a
    # float: a quotient is exactlin.ratio(n, d) or Fraction(n, d)
    assert true_divisions() == []
    (tmp_path / "m.py").write_text("x = a // b\ny = a / b\nz = 1\nz /= 2\n")
    assert sorted(true_divisions(str(tmp_path))) == ["m.py:2", "m.py:4"]


def test_tensor_exp_and_log_run_only_under_the_bch_series(tmp_path):
    # BCH is evaluated on bracket tables (dgl.bch); the tensor-algebra exp
    # and log build only its two-letter series, so a second BCH on tensor
    # words cannot come back
    for name in ("exp_terms", "log_terms"):
        sites = calls_of(name)
        assert sites and set(sites) == {"dgl.py:bch_series"}, sites
    (tmp_path / "m.py").write_text(
        "def f():\n    return freelie.exp_terms(x)\n"
        "def g():\n    def h():\n        exp_terms(y)\n    return h\n"
        "exp_terms(z)\n")
    assert calls_of("exp_terms", str(tmp_path)) == ["m.py:f", "m.py:h", "m.py:None"]
