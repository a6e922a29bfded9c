"""The benchmark's tracer finds what it wraps by name: every function in
``perfbench/layers.py``'s TRACED_FUNCTIONS and every (class, method) in its
TRACED_METHODS must be defined by a kerr_qlink module that a run has loaded,
or the metric fed by that span reads 0 without a word.  The names are read
from the file with ``ast``; perfbench itself is neither imported nor run."""

import ast
import json
import os
import subprocess
import sys

import kerr_qlink

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "layers.py")


def _traced(name: str) -> dict:
    with open(LAYERS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {LAYERS}")


# run in a fresh interpreter, so only what the tracer's own imports load is
# searched: the verification suite, which loads the cross-check routes
_FIND = """
import json, sys
import kerr_qlink.cli.selfcheck

functions, methods = json.loads(sys.argv[1])
modules = [m for name, m in sorted(sys.modules.items())
           if name.split('.')[0] == 'kerr_qlink']

def defined(name):
    return [m.__name__ for m in modules
            if getattr(vars(m).get(name), '__module__', None) == m.__name__]

print(json.dumps({
    'functions': {name: defined(name) for name in functions},
    'methods': [[cls, method, [m for m in defined(cls)
                               if method in vars(vars(sys.modules[m])[cls])]]
                for cls, method in methods],
}))
"""


def test_every_traced_name_is_defined_where_the_tracer_looks():
    functions = sorted(_traced("TRACED_FUNCTIONS"))
    methods = sorted(_traced("TRACED_METHODS"))
    assert functions and methods
    src = os.path.dirname(os.path.dirname(kerr_qlink.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _FIND, json.dumps([functions, methods])],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True)
    found = json.loads(proc.stdout)
    assert [name for name, where in found["functions"].items() if not where] == []
    assert [(cls, method) for cls, method, where in found["methods"]
            if not where] == []
    # the tracer times the sweep's CSV writes by patching open in this module
    assert found["functions"]["run_sweep"] == ["kerr_qlink.cli.report"]
