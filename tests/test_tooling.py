"""The benchmark's per-layer tracer (perfbench/layers.py) wraps fluorospec
functions by ``module.function`` name. A rename that leaves one of them
dangling breaks only the traced benchmark run, so it is checked here. The
names are read from the source of layers.py, which is not imported."""
import ast
import importlib
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
