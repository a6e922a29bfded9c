"""Every name a kerr_qlink module imports is used there, or listed in its
``__all__``, or on an import marked ``# noqa: F401`` with a reason.

An import nothing reads still costs its compile and load on every command
that reaches the module, and a re-export gives a name a second home.  Read
with ``ast``; no module is imported.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "kerr_qlink")
MODULES = sorted(
    os.path.relpath(os.path.join(root, name), SRC)
    for root, _dirs, files in os.walk(SRC) for name in files
    if name.endswith(".py"))


def _bound_names(node):
    """Each name an import statement binds."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        elif isinstance(node, ast.Import):
            yield alias.name.split(".")[0]
        else:
            yield alias.name


def _all(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _noqa_with_reason(lines, node) -> bool:
    """The import carries ``# noqa: F401`` and a reason: text after the
    marker, or a comment on the line right above the statement."""
    marked = [line for line in lines[node.lineno - 1:node.end_lineno]
              if "# noqa: F401" in line]
    if not marked:
        return False
    after = marked[0].split("# noqa: F401", 1)[1].strip()
    above = lines[node.lineno - 2].strip() if node.lineno > 1 else ""
    return bool(after) or above.startswith("#")


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used_exported_or_excused(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        text = fh.read()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = _all(tree)
    unused = [
        f"{module}:{node.lineno} {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _bound_names(node)
        if name not in used and name not in exported
        and not _noqa_with_reason(lines, node)]
    assert unused == []

