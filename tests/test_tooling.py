"""Checks on the source tree itself.

The benchmark's per-layer tracer (perfbench/layers.py) wraps fluorospec
functions by ``module.function`` name. A rename that leaves one of them
dangling breaks only the traced benchmark run, so it is checked here. The
names are read from the source of layers.py, which is not imported."""
import ast
import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS_PY = ROOT / "perfbench" / "layers.py"


def _traced_layers() -> dict:
    for node in ast.parse(LAYERS_PY.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {LAYERS_PY}")


def test_traced_layers_resolve():
    layers = _traced_layers()
    assert layers
    for mod, fns in layers.items():
        home = importlib.import_module(f"fluorospec.{mod}")
        for fn in fns:
            assert callable(getattr(home, fn, None)), f"fluorospec.{mod}.{fn}"


def test_src_imports_no_scipy():
    """The runtime needs numpy alone: no import statement of src/, at
    module level or in a function body, names scipy or a submodule of it."""
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, found


def test_src_has_no_unused_imports():
    """Every module-level import of src/ binds a name the module reads.
    Package __init__ files import to re-export, so they are skipped."""
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    assert not unused, unused


def test_src_opens_text_files_with_an_encoding():
    """Every text-mode open() of src/ names its encoding, so that a config
    is read and a result written as UTF-8 whatever the locale; a binary
    mode needs none."""
    bare = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
            binary = isinstance(mode, ast.Constant) and "b" in mode.value
            if not (binary or "encoding" in keywords or len(node.args) > 3):
                bare.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not bare, bare


def test_code_line_counter_skips_docstrings_comments_and_blank_lines():
    """tools/code_lines.py counts each line that holds a token other than a
    comment, outside the docstrings of modules, classes and functions."""
    count = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))["code_lines"]
    source = ('"""Module\ndocstring."""\n\nimport os  # why\n\n\nclass A:\n'
              '    """Doc."""\n\n    def f(self, x):\n        """Doc\n        string."""\n'
              '        # a comment\n        return (x +\n                1)\n')
    assert count(source) == 5
