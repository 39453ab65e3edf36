"""Batch front end: JSON run configuration in, deterministic CSV out.

Each task writes one CSV (# metadata comments, header, rows with
17-significant-digit scientific notation) plus a .meta.json sidecar with
the fully resolved configuration, library version and wall time. Every
task is a thin shell over the library: ``steady``, ``spectrum``, ``c1``,
``c2`` and ``g2`` are one library call each; ``mandel-sweep`` and
``lineshape-sweep`` are one ``counting.detuning_sweep`` call, and
``counting`` maps ``counting.counting_record`` over its time grid with the
same thread map. Both spread the grid points over ``threads`` worker
threads and return them in grid order, so outputs are byte-identical
across runs and thread counts.

The model is recorded once, in the sidecar; the CSV's comment lines hold
the task, the version and the task's own scalars. The sidecar is
sorted-key JSON from the json module's C encoder, with the config's model
spliced in as the text it was read from, so a large inline model is
decoded once and never encoded; an indented config gives a multi-line
sidecar. Files are read and written as UTF-8. Both files are encoded
before either is written, and a CSV whose sidecar cannot be written is
removed again, so no result file is left without its sidecar.

The command line's task, ``--out`` and ``--threads`` replace the config's
own values before the checks, which run once, on the values the run uses.

Exit codes: 0 ok; 2 config error (a grid too large to allocate included)
or unwritable output; 3 numerical failure or a result too large to
allocate (MemoryError). Each error is one line of JSON on stderr and
leaves no CSV or sidecar.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import json.decoder
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, correl, counting, scenarios, spectrum
from .model import ModelSpec
from .steady import NullSpaceDegenerate, config_populations, prepare

TASK_GRID = {"steady": None, "spectrum": "omega", "g2": "tau", "c1": "tau",
             "c2": "tau", "counting": "time", "mandel-sweep": "delta",
             "lineshape-sweep": "delta"}
TASKS = tuple(TASK_GRID)
SCENARIOS = {
    "single_state": scenarios.single_state,
    "spectral_two_state": scenarios.spectral_two_state,
    "lifetime_fluct": scenarios.lifetime_fluct,
    "diffusion_chain": scenarios.diffusion_chain,
    "light_assisted": scenarios.light_assisted,
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int
    spacing: str = "linear"

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The grid, built once and read-only; not a field, so not in the
        sidecar. A linear grid from -a to a is the negation of its upper
        half (0.0 in the middle), so the spectrum pairs every omega with -omega."""
        space = np.linspace if self.spacing == "linear" else np.geomspace
        with np.errstate(all="ignore"):        # an overflow shows as inf or NaN
            grid = space(self.start, self.stop, self.count)
        if self.spacing == "linear" and self.start == -self.stop:
            half = self.count // 2
            np.negative(grid[:-half - 1:-1], out=grid[:half])
            grid[half:self.count - half] = 0.0     # the middle point, if any
        grid.flags.writeable = False
        return grid


@dataclass(frozen=True)
class RunConfig:
    """A run configuration; ``spec`` is the ModelSpec of ``model``, built
    once, when the config is made, and run from there; ``model_text`` is
    the JSON text ``model`` was decoded from."""

    model: dict
    task: str
    grids: dict
    output: str
    threads: int
    n_max: int | None
    model_text: str = dataclasses.field(repr=False, compare=False)
    spec: ModelSpec = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "spec", build_model(self))


def _require_keys(obj, allowed: set[str], required: set[str], path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)} "
                          f"(allowed: {sorted(allowed)})")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")


def _integer(v, path: str) -> int:
    if type(v) is not int:
        raise ConfigError(f"{path}: must be an integer, got {v!r}")
    return v


def _finite(obj: dict, key: str, path: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be a finite number, got {v!r}")
    return float(v)


_NUMBER_TYPES = {int, float}


def _numbers(v, path: str):
    """v if it is a number or a nested list of numbers; bools and strings,
    which float() and numpy would silently convert, are rejected, naming
    the first such entry. A list of numbers is checked in one pass over its
    element types: JSON numbers decode to exactly int or float, and
    type(True) is bool, so the check is exact."""
    if type(v) is list and set(map(type, v)) <= _NUMBER_TYPES:
        return v
    if isinstance(v, list):
        for i, x in enumerate(v):
            _numbers(x, f"{path}[{i}]")
    elif isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: must be a number, got {v!r}")
    return v


def _parse_grid(obj, name: str) -> GridSpec:
    """Validated grid; tau and time grids must start at >= 0, and the
    built grid must fit in memory and be finite and strictly increasing."""
    path = f"config.grids.{name}"
    _require_keys(obj, {"start", "stop", "count", "spacing"},
                  {"start", "stop", "count"}, path)
    g = GridSpec(start=_finite(obj, "start", path), stop=_finite(obj, "stop", path),
                 count=_integer(obj["count"], f"{path}.count"),
                 spacing=obj.get("spacing", "linear"))
    if g.count < 2:
        raise ConfigError(f"{path}.count: must be >= 2, got {g.count}")
    if g.spacing not in ("linear", "log"):
        raise ConfigError(f"{path}.spacing: must be 'linear' or 'log'")
    if g.stop <= g.start:
        raise ConfigError(f"{path}: stop {g.stop} must exceed start {g.start}")
    if name in ("tau", "time") and g.start < 0:
        raise ConfigError(f"{path}.start: must be >= 0, got {g.start}")
    if g.spacing == "log" and g.start <= 0:
        raise ConfigError(f"{path}: log grid requires positive start and stop")
    try:
        grid = g.points
    except MemoryError:
        raise ConfigError(f"{path}.count: {g.count} points do not fit in memory") from None
    if not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise ConfigError(f"{path}: the {g.count} points from {g.start} to {g.stop} "
                          "must be finite and strictly increasing")
    return g


_SCAN_ONCE = json.JSONDecoder().scan_once
_WS = json.decoder.WHITESPACE.match


def _decode(text: str) -> tuple:
    """json.loads(text), and the source text of the top-level "model" value
    (the last, which json.loads keeps) if text is an object. Its top level
    is walked by json.decoder.JSONObject, each value decoded by the C
    scanner; a malformed text raises the error json.loads raises."""
    start = _WS(text, 0).end()
    if not text.startswith("{", start):      # a byte order mark included
        return json.loads(text), None
    texts = []

    def scan_once(s, i):
        value, end = _SCAN_ONCE(s, i)
        texts.append(s[i:end])
        return value, end

    pairs, end = json.decoder.JSONObject((text, start + 1), True, scan_once,
                                         None, list)
    end = _WS(text, end).end()
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return dict(pairs), dict(zip((key for key, _ in pairs), texts)).get("model")


def parse_config(text: str, *, task: str | None = None, output: str | None = None,
                 threads: int | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration; all defaults resolved.
    Each of task, output and threads that is not None replaces the config's
    own value before any value is checked, so only the values used are."""
    try:
        raw, model_text = _decode(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    _require_keys(raw, {"schema", "model", "task", "grids", "output",
                        "threads", "n_max"}, {"schema", "model", "task"}, "config")
    for key, value in (("task", task), ("output", output), ("threads", threads)):
        if value is not None:
            raw[key] = value
    # exactly the integer 1: true and 1.0 compare equal to 1
    if type(raw["schema"]) is not int or raw["schema"] != 1:
        raise ConfigError(f"config.schema: unsupported version {raw['schema']!r}")
    output = raw.get("output", "run")
    if type(output) is not str or not output:
        raise ConfigError(f"config.output: must be a non-empty string, got {output!r}")
    task = raw["task"]
    if task not in TASKS:
        raise ConfigError(f"config.task: unknown task {task!r}; valid: {list(TASKS)}")

    model = raw["model"]
    if not isinstance(model, dict):
        raise ConfigError("config.model: must be an object")
    if "scenario" in model:
        _require_keys(model, {"scenario", "params"}, {"scenario", "params"},
                      "config.model")
        if type(model["scenario"]) is not str:
            raise ConfigError(f"config.model.scenario: must be a string, "
                              f"got {model['scenario']!r}")
        if model["scenario"] not in SCENARIOS:
            raise ConfigError(f"config.model.scenario: unknown scenario "
                              f"{model['scenario']!r}; valid: {sorted(SCENARIOS)}")
        # the params are the scenario constructor's keyword arguments
        sig = inspect.signature(SCENARIOS[model["scenario"]]).parameters
        _require_keys(model["params"], set(sig),
                      {n for n, p in sig.items() if p.default is p.empty},
                      "config.model.params")
    elif "inline" in model:
        _require_keys(model, {"inline"}, {"inline"}, "config.model")
        inline = model["inline"]
        _require_keys(inline, {"r_max", "delta_omega", "gamma", "omega_rabi",
                               "phi", "gamma_cross", "detuning", "labels"},
                      {"r_max", "delta_omega", "gamma", "omega_rabi"},
                      "config.model.inline")
    else:
        raise ConfigError("config.model: needs either 'scenario' or 'inline'")
    part = "params" if "scenario" in model else "inline"
    for k, v in model[part].items():
        if k != "labels" and v is not None:
            _numbers(v, f"config.model.{part}.{k}")

    raw_grids = raw.get("grids", {})
    _require_keys(raw_grids, {"tau", "omega", "delta", "time"}, set(), "config.grids")
    grids = {name: _parse_grid(g, name) for name, g in raw_grids.items()}

    n_max = raw.get("n_max")
    if n_max is not None:
        n_max = _integer(n_max, "config.n_max")
        if n_max < 0:
            raise ConfigError(f"config.n_max: must be >= 0, got {n_max}")

    threads = _integer(raw.get("threads", 1), "config.threads")
    if threads < 1:
        raise ConfigError(f"config.threads: must be >= 1, got {threads}")
    needed = TASK_GRID[task]
    if needed and needed not in grids:
        raise ConfigError(f"config.grids: task {task!r} needs the {needed!r} grid")
    if task == "counting" and n_max is None:
        raise ConfigError("config.n_max: required for the counting task")

    try:
        return RunConfig(model=model, task=task, grids=grids, output=output,
                         threads=threads, n_max=n_max, model_text=model_text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.model: {exc}") from exc


def _config_dict(config: RunConfig) -> dict:
    """The resolved config as the JSON object of the sidecar's "config"."""
    d = {"schema": 1, "model": config.model, "task": config.task,
         "grids": {k: dataclasses.asdict(g) for k, g in config.grids.items()},
         "output": config.output, "threads": config.threads}
    if config.n_max is not None:
        d["n_max"] = config.n_max
    return d


def build_model(config: RunConfig) -> ModelSpec:
    """The ModelSpec of config.model; ValueError when it is invalid."""
    m = config.model
    if "scenario" in m:
        return SCENARIOS[m["scenario"]](**m["params"])
    inline = m["inline"]
    r = _integer(inline["r_max"], "config.model.inline.r_max")
    arrays = [inline[k] for k in ("delta_omega", "gamma", "omega_rabi")]
    if any(len(a) != r for a in arrays):
        raise ConfigError("config.model.inline: per-state arrays must have length r_max")
    labels = inline.get("labels")
    if labels is not None and not (isinstance(labels, list) and len(labels) == r
                                   and all(isinstance(x, str) for x in labels)):
        raise ConfigError(f"config.model.inline.labels: must be a list of "
                          f"r_max = {r} strings, got {labels!r}")
    # only an absent or null rate matrix means zeros; [], 0 or false is malformed
    return ModelSpec(*arrays, phi=inline.get("phi"),
                     gamma_cross=inline.get("gamma_cross"),
                     detuning=_finite(inline, "detuning", "config.model.inline")
                     if "detuning" in inline else 0.0, labels=labels)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _csv_text(meta: dict, header: list[str], rows) -> str:
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _sidecar_text(config: RunConfig, wall_time_s: float) -> str:
    """Sorted-key JSON of the resolved config, version and wall time, with
    the model text spliced in as read at the first "model": null: JSON
    escapes each quote inside a string, and before "model" sorts only
    "grids", which holds numbers and spacing names."""
    config_dict = dict(_config_dict(config), model=None)
    head, _, tail = json.dumps({"config": config_dict, "version": __version__,
                                "wall_time_s": wall_time_s},
                               sort_keys=True, separators=(", ", ": ")
                               ).partition('"model": null')
    return f'{head}"model": {config.model_text}{tail}'


def run(config: RunConfig) -> list[str]:
    """Execute one task; returns the list of files written."""
    t0 = time.perf_counter()
    spec = config.spec
    task = config.task
    grid_name = TASK_GRID[task]
    grid = config.grids[grid_name].points if grid_name else None
    meta = {"task": task, "version": __version__}
    csv_path = f"{config.output}_{task.replace('-', '_')}.csv"

    if task == "steady":
        st = prepare(spec).steady
        header = ["state_index", "population", "excited_population"]
        rows = [(float(i), p, e) for i, (p, e) in
                enumerate(zip(config_populations(st), np.real(st.blocks[:, 1, 1])))]
    elif task == "spectrum":
        p = prepare(spec)
        series = spectrum.incoherent_spectrum(p, grid)
        meta["coherent_weight"] = _fmt(spectrum.coherent_weight(p))
        meta["stationary_intensity"] = _fmt(correl.stationary_intensity(p))
        meta["unit"] = "omega_minus_omegaL in model rate units"
        header = ["omega_minus_omegaL", "s_inc"]
        rows = zip(series.abscissa, series.values)
    elif task == "c1":
        series = correl.c1(spec, grid)
        header = ["tau", "re_c1", "im_c1"]
        rows = ((t, v.real, v.imag) for t, v in zip(series.abscissa, series.values))
    elif task in ("c2", "g2"):
        series = (correl.c2 if task == "c2" else correl.g2)(spec, grid)
        header, rows = ["tau", task], zip(series.abscissa, series.values)
    elif task == "counting":
        p = prepare(spec)
        p.steady    # solved here, once, rather than raced for by the workers

        recs = counting._parallel_map(
            lambda t: counting.counting_record(p, t, config.n_max),
            grid.tolist(), config.threads)
        meta["aliasing_bound"] = _fmt(max(r.aliasing for r in recs))
        header = ["t", "mean", "second_factorial", "mandel_q", "remainder"]
        header += [f"p{n}" for n in range(config.n_max + 1)]
        rows = [[r.t, r.mean, r.second_factorial, r.mandel_q, r.remainder, *r.pn]
                for r in recs]
    elif task in ("mandel-sweep", "lineshape-sweep"):
        observable, column = {"mandel-sweep": (counting.stationary_mandel, "q_st"),
                              "lineshape-sweep": (counting.line_shape, "intensity")}[task]
        series = counting.detuning_sweep(observable, spec, grid, config.threads)
        header, rows = ["delta", column], zip(series.abscissa, series.values)

    csv_text = _csv_text(meta, header, rows)
    sidecar = f"{config.output}.meta.json"
    sidecar_text = _sidecar_text(config, time.perf_counter() - t0)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    try:
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(sidecar_text)
    except OSError:
        os.unlink(csv_path)   # a CSV without its sidecar would look complete
        raise
    return [csv_path, sidecar]


def _report(exc: Exception, code: int) -> int:
    """Print exc as a one-line JSON error on stderr; returns the exit code."""
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call of ``main`` (not at
    import) and reused by every later call in the process."""
    parser = argparse.ArgumentParser(
        prog="fluorospec",
        description="Fluorophore emission observables from block Lindblad rate models")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output path prefix")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text, task=args.task, output=args.out, threads=args.threads)
    except (OSError, UnicodeDecodeError, ConfigError) as exc:
        return _report(exc, 2)
    try:
        files = run(cfg)
    except OSError as exc:   # the CSV or the sidecar could not be written
        return _report(exc, 2)
    except (NullSpaceDegenerate, correl.ZeroIntensity, counting.ZeroCounts,
            ArithmeticError, MemoryError, ValueError) as exc:
        return _report(exc, 3)
    if args.verbose:
        for f in files:
            print(f, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
