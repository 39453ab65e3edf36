"""Per-layer timing by wrapping the public functions of each module.

The wrappers are installed from the benchmark, around the calls into each
layer; the program itself is not changed. A function imported by name into
other modules is replaced there too, so every call path is counted. For
each traced name the tracer keeps the call count, the self time (span time
minus the time of traced calls nested inside it) and, for the linalg
layers, the sum of dim^3 over calls.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

import scipy.linalg

LAYERS = {
    "cli": ("parse_config", "run"),
    "model": ("build_generator", "validate"),
    "steady": ("steady_state", "resolve_deflated", "laurent_decomposition"),
    "correl": ("propagate_on_grid", "stationary_intensity"),
    "spectrum": ("incoherent_spectrum", "coherent_weight"),
    "counting": ("counting_split", "pn", "_factorial_moments",
                 "stationary_mandel", "line_shape", "counting_record"),
}
# linalg layer -> scipy.linalg functions it stands for; only the ones in
# the first slot of each pair are counted as calls (factorizations), the
# others add their time to the layer.
LINALG = {
    "expm": (("expm",), ()),
    "svd": (("svd", "svdvals"), ()),
    "lu": (("lu_factor", "solve"), ("lu_solve",)),
}
N3_LAYERS = ("expm", "svd")


def layer_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
    return names + [f"linalg.{name}" for name in LINALG]


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    n3: int = 0


class Tracer:
    """Context manager; while active, calls into the traced layers update
    ``stats``. ``top_s`` is the time covered by outermost traced calls."""

    def __init__(self):
        self._child = []
        self._undo = []
        self.reset()

    def reset(self):
        self.stats = {name: Stat() for name in layer_names()}
        self.top_s = 0.0

    def _wrap(self, name, fn, counted, n3):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._child.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat = tracer.stats[name]
                stat.self_s += dt - tracer._child.pop()
                if counted:
                    stat.calls += 1
                    if n3:
                        stat.n3 += args[0].shape[0] ** 3
                if tracer._child:
                    tracer._child[-1] += dt
                else:
                    tracer.top_s += dt
        return traced

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "fluorospec" or key.startswith("fluorospec.")]
        for mod, fns in LAYERS.items():
            home = importlib.import_module(f"fluorospec.{mod}")
            for fn in fns:
                orig = getattr(home, fn)
                new = self._wrap(f"{mod}.{fn}", orig, True, False)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, new)
        for layer, (counted, extra) in LINALG.items():
            for fn in counted + extra:
                new = self._wrap(f"linalg.{layer}", getattr(scipy.linalg, fn),
                                 fn in counted, layer in N3_LAYERS)
                self._patch(scipy.linalg, fn, new)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False
