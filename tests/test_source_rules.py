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


def broad_handlers(src=SRC):
    """file:line of every bare except and every handler of Exception or
    BaseException under src."""
    found = []
    for root, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ExceptHandler) and (
                        node.type is None or {"Exception", "BaseException"}
                        & set(_caught(node.type))):
                    found.append("%s:%d" % (os.path.relpath(path, src), node.lineno))
    return found


def test_no_broad_exception_handlers():
    # an engine bug must fail loudly; a handler that catches everything
    # turns it into a diagnostic or a flag that reads as success
    assert os.path.isfile(os.path.join(SRC, "dgl.py"))
    assert broad_handlers() == []
