import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fluorospec as fs
from fluorospec import cli, steady

FIG2A_CONFIG = {
    "schema": 1,
    "model": {"scenario": "spectral_two_state",
              "params": {"gamma": 1.0, "omega_rabi": 0.7071067811865476,
                         "delta_omega": 0.1, "phi": 0.008, "detuning": 0.0}},
    "task": "spectrum",
    "grids": {"omega": {"start": -2.0, "stop": 2.0, "count": 41,
                        "spacing": "linear"}},
    "output": "run",
    "threads": 1,
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_parse_minimal_config_fills_defaults():
    cfg = cli.parse_config(json.dumps({
        "schema": 1,
        "model": {"scenario": "single_state",
                  "params": {"gamma": 1.0, "omega_rabi": 0.7}},
        "task": "steady"}))
    assert cfg.output == "run"
    assert cfg.threads == 1
    assert cfg.n_max is None


def test_parse_fig2a_fixture():
    cfg = cli.parse_config(json.dumps(FIG2A_CONFIG))
    spec = cli.build_model(cfg)
    assert spec.delta_omega[0] == 0.1
    assert spec.phi[0, 1] == 0.008
    assert cfg.grids["omega"].count == 41


def test_parse_unknown_task_lists_valid():
    bad = dict(FIG2A_CONFIG, task="fourier")
    with pytest.raises(cli.ConfigError, match="steady"):
        cli.parse_config(json.dumps(bad))


def test_parse_unknown_key_rejected():
    bad = dict(FIG2A_CONFIG, typo_key=1)
    with pytest.raises(cli.ConfigError, match="typo_key"):
        cli.parse_config(json.dumps(bad))


def test_parse_error_reports_position():
    with pytest.raises(cli.ConfigError, match="line 1"):
        cli.parse_config("{not json")


@pytest.mark.parametrize("text", [
    "", " ", "{", '{"a" 1}', '{"schema":1,}',
    "{} x",                   # json.loads skips trailing whitespace first
    "\ufeff{}",
    '{"schema": 1 "model": 2}',
    '{\n  "schema": 1,\n  "model": {"inline": {"gamma": [1.0, 2.0,]}}\n}'],
    ids=["empty", "blank", "open_brace", "no_colon", "trailing_comma",
         "extra_data", "byte_order_mark", "no_comma", "nested"])
def test_parse_error_is_that_of_json_loads(text):
    """A malformed config's error names the message, line and column that
    json.loads gives for the same text."""
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    with pytest.raises(cli.ConfigError) as got:
        cli.parse_config(text)
    exc = want.value
    assert str(got.value) == (f"config parse error at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}")


@pytest.mark.parametrize("text", ["[]", "1"])
def test_parse_non_object_rejected(text):
    with pytest.raises(cli.ConfigError, match="^config: must be an object$"):
        cli.parse_config(text)


def test_parse_grid_validation():
    bad = json.loads(json.dumps(FIG2A_CONFIG))
    bad["grids"]["omega"]["count"] = 1
    with pytest.raises(cli.ConfigError, match="count"):
        cli.parse_config(json.dumps(bad))
    with pytest.raises(cli.ConfigError, match="task 'spectrum' needs the 'omega' grid"):
        cli.parse_config(json.dumps(dict(FIG2A_CONFIG, grids={})))


def test_config_round_trip():
    cfg = cli.parse_config(json.dumps(FIG2A_CONFIG))
    again = cli.parse_config(json.dumps(cli._config_dict(cfg)))
    assert again == cfg


def test_inline_model_config():
    cfg = cli.parse_config(json.dumps({
        "schema": 1,
        "model": {"inline": {"r_max": 2, "delta_omega": [0.1, -0.1],
                             "gamma": [1.0, 1.0], "omega_rabi": [0.7, 0.7],
                             "phi": [[0.0, 0.01], [0.01, 0.0]],
                             "gamma_cross": None, "detuning": 0.0,
                             "labels": ["open", "closed"]}},
        "task": "steady"}))
    spec = cli.build_model(cfg)
    assert spec.r_max == 2
    assert spec.phi[0, 1] == 0.01
    assert spec.labels == ("open", "closed")


def test_run_steady_symmetric_two_state(tmp_path):
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task="steady",
                                           output=str(tmp_path / "sym")))
    rc = cli.main(["steady", "--config", str(cfg_path)])
    assert rc == 0
    lines = (tmp_path / "sym_steady.csv").read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    pops = [float(r.split(",")[1]) for r in rows]
    assert pops == pytest.approx([0.5, 0.5], abs=1e-12)


def test_run_writes_metadata_sidecar(tmp_path):
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG,
                                           output=str(tmp_path / "meta")))
    assert cli.main(["spectrum", "--config", str(cfg_path)]) == 0
    sidecar = json.loads((tmp_path / "meta.meta.json").read_text())
    assert sidecar["config"]["task"] == "spectrum"
    cfg = cli.parse_config(cfg_path.read_text())
    assert sidecar["config"] == json.loads(json.dumps(cli._config_dict(cfg)))
    assert "wall_time_s" in sidecar
    header = [l for l in (tmp_path / "meta_spectrum.csv").read_text().splitlines()
              if not l.startswith("#")][0]
    assert header == "omega_minus_omegaL,s_inc"
    # an inline model with rate tables and labels survives the sidecar's encoding
    inline = {"r_max": 3, "delta_omega": [0.1, -0.1, 0.25], "gamma": [1.0, 0.5, 2],
              "omega_rabi": [0.7, 0.7, 1.3],
              "phi": [[0.0, 0.01, 0.125], [0.02, 0.0, 1e-9], [0.5, 3, 0.0]],
              "gamma_cross": [[0.0, 0.1, 0.0], [0.2, 0.0, 0.3], [0.0, 1e-3, 0.0]],
              "labels": ["open", "closed", "\u00e9tat"], "detuning": -0.4}
    cfg_path = write_config(tmp_path, {"schema": 1, "task": "steady",
                                       "model": {"inline": inline},
                                       "output": str(tmp_path / "inline")},
                            name="inline.json")
    assert cli.main(["steady", "--config", str(cfg_path)]) == 0
    text = (tmp_path / "inline.meta.json").read_text(encoding="utf-8")
    sidecar = json.loads(text)
    # sorted keys, one object, the model as the config wrote it
    assert text == _sidecar_form(sidecar, json.dumps({"inline": inline}))
    cfg = cli.parse_config(cfg_path.read_text())
    assert sidecar["config"] == json.loads(json.dumps(cli._config_dict(cfg)))
    assert cli.parse_config(json.dumps(sidecar["config"])) == cfg
    # the model is recorded once, in the sidecar
    assert sidecar["config"]["model"] == {"inline": inline}
    csv = (tmp_path / "inline_steady.csv").read_text().splitlines()
    assert not [l for l in csv if l.startswith("# model")]


def _sidecar_form(sidecar: dict, model_text: str) -> str:
    """The exact text of a sidecar: the sorted-key JSON of its values, with
    the config's model spliced in as the source text it was read from."""
    rest = dict(sidecar, config=dict(sidecar["config"], model=None))
    return json.dumps(rest, sort_keys=True).replace(
        '"model": null', f'"model": {model_text}', 1)


# A hand-written config: indented, keys unsorted, numbers in several forms
# and labels that are not ASCII
_PRETTY_MODEL = """{
    "inline": {
      "r_max": 2,
      "omega_rabi": [0.7, 7e-1],
      "gamma": [1.0, 2],
      "delta_omega": [-0.0, 1e-3],
      "phi": [[0, 1E-2], [2e-2, 0]],
      "detuning": 1E2,
      "labels": ["état", "fermé"]
    }
  }"""
_PRETTY_CONFIG = ('{\n  "task": "steady",\n  "model": ' + _PRETTY_MODEL
                  + ',\n  "schema": 1\n}\n')


def test_sidecar_records_the_model_as_read(tmp_path):
    cfg_path = tmp_path / "pretty.json"
    cfg_path.write_text(_PRETTY_CONFIG, encoding="utf-8")
    out = str(tmp_path / "pretty")
    assert cli.main(["steady", "--config", str(cfg_path), "--out", out]) == 0
    raw = (tmp_path / "pretty.meta.json").read_bytes()
    sidecar = json.loads(raw)
    assert raw == _sidecar_form(sidecar, _PRETTY_MODEL).encode("utf-8")
    assert sidecar["config"]["model"] == json.loads(_PRETTY_MODEL)
    assert (cli.parse_config(json.dumps(sidecar["config"]))
            == cli.parse_config(_PRETTY_CONFIG, output=out))


def test_config_and_sidecar_are_utf8_in_any_locale(tmp_path):
    """JSON is UTF-8 (RFC 8259): a config with labels that are not ASCII
    runs under the C locale without Python's UTF-8 mode."""
    cfg_path = tmp_path / "pretty.json"
    cfg_path.write_text(_PRETTY_CONFIG, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fluorospec.cli", "steady", "--config", str(cfg_path),
         "--out", str(tmp_path / "c_locale")],
        capture_output=True, text=True, env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0"))
    assert proc.returncode == 0, proc.stderr
    raw = (tmp_path / "c_locale.meta.json").read_bytes()
    assert _PRETTY_MODEL.encode("utf-8") in raw
    assert json.loads(raw)["config"]["model"] == json.loads(_PRETTY_MODEL)


def test_repeated_model_key_keeps_the_last(tmp_path):
    """Of two "model" keys the last is run and recorded, as json.loads
    keeps it."""
    first = json.dumps({"scenario": "single_state",
                        "params": {"gamma": 1.0, "omega_rabi": 0.7}})
    last = json.dumps(FIG2A_CONFIG["model"])
    twice = tmp_path / "twice.json"
    twice.write_text(f'{{"schema": 1, "model": {first}, "task": "steady", '
                     f'"model": {last}}}')
    once = write_config(tmp_path, {"schema": 1, "model": FIG2A_CONFIG["model"],
                                   "task": "steady"}, name="once.json")
    for name, path in (("twice", twice), ("once", once)):
        assert cli.main(["steady", "--config", str(path),
                         "--out", str(tmp_path / name)]) == 0, name
    assert cli.parse_config(twice.read_text()).model == FIG2A_CONFIG["model"]
    assert ((tmp_path / "twice_steady.csv").read_bytes()
            == (tmp_path / "once_steady.csv").read_bytes())
    text = (tmp_path / "twice.meta.json").read_text(encoding="utf-8")
    assert text == _sidecar_form(json.loads(text), last)


@pytest.mark.parametrize("own, argv", [({"task": "spectrum"}, []),
                                       ({"task": "counting"}, []),
                                       ({"task": "steady", "threads": 0},
                                        ["--threads", "2"])],
                         ids=["spectrum_no_grids", "counting_no_n_max", "threads_zero"])
def test_command_line_replaces_config_values(own, argv, tmp_path, capsys):
    """The command line's task and thread count replace the config's own
    before any check, so only the values the run uses are checked."""
    model = {"scenario": "single_state", "params": {"gamma": 1.0, "omega_rabi": 0.7}}
    cfg = dict(own, schema=1, model=model, output=str(tmp_path / "run"))
    rc = cli.main(["steady", "--config", str(write_config(tmp_path, cfg)), *argv])
    assert rc == 0, capsys.readouterr().err
    assert (tmp_path / "run_steady.csv").exists()
    sidecar = json.loads((tmp_path / "run.meta.json").read_text())
    assert sidecar["config"]["task"] == "steady"
    assert sidecar["config"]["threads"] == (2 if argv else 1)


def test_run_deterministic_across_runs_and_threads(tmp_path):
    delta = {"delta": {"start": -3.0, "stop": 3.0, "count": 9}}
    for task, grids in (("spectrum", FIG2A_CONFIG["grids"]),
                        ("mandel-sweep", delta), ("lineshape-sweep", delta)):
        outputs = []
        for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
            cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task=task, grids=grids,
                                                   output=str(tmp_path / tag)),
                                    name=f"cfg_{tag}.json")
            rc = cli.main([task, "--config", str(cfg_path),
                           "--threads", str(threads)])
            assert rc == 0
            csv = tmp_path / f"{tag}_{task.replace('-', '_')}.csv"
            outputs.append(csv.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], task


def test_run_counting_task(tmp_path):
    cfg = dict(FIG2A_CONFIG, task="counting", n_max=6,
               output=str(tmp_path / "cnt"))
    cfg["model"] = {"scenario": "single_state",
                    "params": {"gamma": 1.0, "omega_rabi": 0.7071067811865476}}
    cfg["grids"] = {"time": {"start": 0.0, "stop": 4.0, "count": 3}}
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["counting", "--config", str(cfg_path)]) == 0
    lines = (tmp_path / "cnt_counting.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    assert header[:5] == ["t", "mean", "second_factorial", "mandel_q", "remainder"]
    assert header[5:] == [f"p{n}" for n in range(7)]
    first = [l for l in lines if not l.startswith("#")][1].split(",")
    assert float(first[5]) == pytest.approx(1.0, abs=1e-12)   # P0(0) = 1


def _malformed_configs():
    """Configs that must exit 2 with a ConfigError, one per hole."""
    unknown_task = {"schema": 1, "task": "bogus",
                    "model": {"scenario": "single_state", "params": {}}}
    misspelled_param = dict(FIG2A_CONFIG, model={
        "scenario": "single_state", "params": {"gamma": 1.0, "omega": 1.0}})
    string_count = json.loads(json.dumps(FIG2A_CONFIG))
    string_count["grids"]["omega"]["count"] = "x"
    nan_stop = dict(FIG2A_CONFIG, task="g2",
                    grids={"tau": {"start": 0.0, "stop": float("nan"), "count": 5}})
    negative_time = dict(FIG2A_CONFIG, task="counting", n_max=4,
                         grids={"time": {"start": -1.0, "stop": 1.0, "count": 3}})
    reversed_grid = json.loads(json.dumps(FIG2A_CONFIG))
    reversed_grid["grids"]["omega"].update(start=2.0, stop=-2.0)
    inline = {"r_max": 2, "delta_omega": [0.0, 0.0], "gamma": [1.0, 1.0],
              "omega_rabi": [0.7, 0.7], "phi": [[0.0, 0.01], [0.01, 0.0]]}
    extra_entry = dict(FIG2A_CONFIG, model={"inline": dict(
        inline, gamma=[1.0, 1.0, 7.0])})
    fractional_r_max = dict(FIG2A_CONFIG, model={"inline": dict(inline, r_max=2.5)})
    empty_phi = dict(FIG2A_CONFIG, model={"inline": dict(inline, phi=[])})
    scalar_cross = dict(FIG2A_CONFIG, model={"inline": dict(inline, gamma_cross=0)})
    # bools and strings are not numbers, though float() would take them
    not_numbers = {"string_detuning": dict(inline, detuning="5"),
                   "bool_detuning": dict(inline, detuning=True),
                   "bool_gamma": dict(inline, gamma=[True, 1.0]),
                   "string_phi": dict(inline, phi=[[0, "1"], ["1", 0]]),
                   "bool_phi": dict(inline, phi=[[0, True], [0.01, 0]]),
                   "null_gamma": dict(inline, gamma=[1.0, None]),
                   "string_cross": dict(inline, gamma_cross=[[0, 0.1], ["0.1", 0]])}
    # labels must be a list of r_max strings
    bad_labels = {"string_labels": dict(inline, labels="ab"),
                  "number_labels": dict(inline, labels=[1, 2])}
    bool_param = dict(FIG2A_CONFIG, model={
        "scenario": "single_state",
        "params": {"gamma": 1.0, "omega_rabi": 0.7, "detuning": True}})
    single = {"gamma": 1.0, "omega_rabi": 0.7}
    counting = dict(FIG2A_CONFIG, task="counting",
                    grids={"time": {"start": 0.0, "stop": 1.0, "count": 3}})
    checked = {
        "cubic_spacing": ("spectrum", dict(FIG2A_CONFIG, grids={"omega": dict(
            FIG2A_CONFIG["grids"]["omega"], spacing="cubic")})),
        "log_grid_from_zero": ("g2", dict(FIG2A_CONFIG, task="g2", grids={
            "tau": {"start": 0.0, "stop": 1.0, "count": 3, "spacing": "log"}})),
        "list_model": ("steady", dict(FIG2A_CONFIG, model=[])),
        "unknown_scenario": ("steady", dict(FIG2A_CONFIG, model={
            "scenario": "bogus", "params": {}})),
        "params_only_model": ("steady", dict(FIG2A_CONFIG, model={"params": single})),
        "negative_n_max": ("counting", dict(counting, n_max=-1)),
        "counting_without_n_max": ("counting", counting),
        # the constructor's own checks, and the ModelSpec's
        "one_site_chain": ("steady", dict(FIG2A_CONFIG, model={
            "scenario": "diffusion_chain",
            "params": {"n_sites": 1, "omega_profile": [0.7], "phi_hop": 0.1,
                       "gamma": 1.0}})),
        "scenario_negative_gamma": ("steady", dict(FIG2A_CONFIG, model={
            "scenario": "single_state", "params": dict(single, gamma=-1.0)})),
        "inline_negative_gamma": ("steady", dict(FIG2A_CONFIG, model={
            "inline": dict(inline, gamma=[-1.0, 1.0])})),
        # a spec's detuning is one number, never one per block
        "array_detuning": ("steady", dict(FIG2A_CONFIG, model={
            "scenario": "single_state", "params": dict(single, detuning=[1.0, 2.0])})),
    }
    return [("unknown_task", "steady", unknown_task),
            ("misspelled_param", "steady", misspelled_param),
            ("string_count", "spectrum", string_count),
            ("nan_stop", "g2", nan_stop),
            ("negative_time", "counting", negative_time),
            ("reversed_grid", "spectrum", reversed_grid),
            ("extra_entry", "steady", extra_entry),
            ("fractional_r_max", "steady", fractional_r_max),
            # a falsy rate matrix is malformed, not zero
            ("empty_phi", "steady", empty_phi),
            ("scalar_cross", "steady", scalar_cross),
            # the task comes from the command line; the grid check must hold
            ("negative_time_override", "counting",
             dict(negative_time, task="steady"))] + [
        (name, "steady", dict(FIG2A_CONFIG, model={"inline": bad}))
        for name, bad in {**not_numbers, **bad_labels}.items()] + [
        ("bool_param", "steady", bool_param)] + [
        # a scenario that is not a string is not looked up
        (name, "steady", dict(FIG2A_CONFIG, model={
            "scenario": scenario, "params": {"gamma": 1.0, "omega_rabi": 0.7}}))
        for name, scenario in (("list_scenario", []), ("object_scenario", {}))] + [
        (name, task, cfg) for name, (task, cfg) in checked.items()]


# the key or the problem that the error of a malformed config names
_NAMED = {"cubic_spacing": "config.grids.omega.spacing",
          "log_grid_from_zero": "config.grids.tau: log grid",
          "list_model": "config.model: must be an object",
          "unknown_scenario": "config.model.scenario: unknown scenario 'bogus'",
          "params_only_model": "config.model: needs either",
          "negative_n_max": "config.n_max: must be >= 0",
          "counting_without_n_max": "config.n_max: required",
          "one_site_chain": "config.model: n_sites must be >= 2",
          "scenario_negative_gamma": "config.model: invalid model spec:\n  gamma[0]",
          "inline_negative_gamma": "config.model: invalid model spec:\n  gamma[0]",
          "array_detuning": "config.model: invalid model spec:\n  detuning"}


def test_config_error_names_the_key(tmp_path, capsys):
    """Each of these malformed configs fails the check meant for it; an
    invalid model reads the same from a scenario and inline."""
    cases = [c for c in _malformed_configs() if c[0] in _NAMED]
    assert [name for name, _, _ in cases] == list(_NAMED)
    for name, task, cfg in cases:
        cfg_path = write_config(tmp_path, dict(cfg, output=str(tmp_path / name)))
        assert cli.main([task, "--config", str(cfg_path)]) == 2, name
        assert json.loads(capsys.readouterr().err)["message"].startswith(_NAMED[name]), name


def test_exit_code_config_error(tmp_path, capsys):
    for name, task, cfg in _malformed_configs():
        cfg = dict(cfg, output=str(tmp_path / name))
        cfg_path = write_config(tmp_path, cfg, name=f"{name}.json")
        rc = cli.main([task, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert rc == 2, (name, err)
        assert json.loads(err)["error"] == "ConfigError", name
        if name == "bool_phi":   # the first entry that is not a number is named
            assert "config.model.inline.phi[0][1]" in json.loads(err)["message"]
        if name.endswith("_scenario"):
            assert "config.model.scenario" in json.loads(err)["message"], name
        assert not list(tmp_path.glob(f"{name}_*.csv")), name
    # the thread count from the command line must obey the config's bound
    single = dict(FIG2A_CONFIG, task="steady", output=str(tmp_path / "threads"),
                  model={"scenario": "single_state",
                         "params": {"gamma": 1.0, "omega_rabi": 0.7}})
    cfg_path = write_config(tmp_path, single, name="threads.json")
    for threads in ("0", "-3"):
        assert cli.main(["steady", "--config", str(cfg_path),
                         "--threads", threads]) == 2, threads
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not list(tmp_path.glob("threads_*.csv"))
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    assert cli.main(["steady", "--config", str(not_utf8)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize("key, value, argv", [("schema", True, []), ("schema", 1.0, []),
                                              ("output", None, []), ("output", 5, []),
                                              ("output", [1], []), ("output", "", []),
                                              ("output", "run", ["--out", ""])],
                         ids=["schema_true", "schema_float", "output_null",
                              "output_number", "output_list", "output_empty",
                              "out_empty"])
def test_schema_and_output_types_exit_2(key, value, argv, tmp_path, capsys, monkeypatch):
    """The schema is exactly the integer 1 and the output a non-empty
    string, from the config or from --out; nothing else is converted into
    one, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    cfg = dict(FIG2A_CONFIG, task="steady", output="run")
    cfg[key] = value
    rc = cli.main(["steady", "--config", str(write_config(tmp_path, cfg)), *argv])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["error"] == "ConfigError"
    assert f"config.{key}" in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("task, grids", [
    ("c1", {"tau": {"start": 1.0, "stop": 1.000000000000001, "count": 20}}),
    ("spectrum", {"omega": {"start": -1e308, "stop": 1e308, "count": 11}}),
    # 8 PB of points: more than any address space, so never allocated
    ("c1", {"tau": {"start": 0.0, "stop": 1.0, "count": 10**15}})],
    ids=["repeated_points", "overflow", "too_many_points"])
def test_unbuildable_grid_exits_2(task, grids, tmp_path, capsys, monkeypatch):
    """A grid whose built points repeat or overflow is a config error that
    names it, raised without a numpy warning and before anything is
    written."""
    monkeypatch.chdir(tmp_path)
    cfg = dict(FIG2A_CONFIG, task=task, grids=grids, output="run")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([task, "--config", str(write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    assert rc == 2
    assert json.loads(err)["error"] == "ConfigError"
    assert f"config.grids.{next(iter(grids))}" in json.loads(err)["message"]
    assert "RuntimeWarning" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_result_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch):
    """P_n up to n_max = 1e15 needs 8 PB (more than any address space, so
    never allocated): a MemoryError, reported as one line of JSON with exit
    code 3 before anything is written."""
    monkeypatch.chdir(tmp_path)
    cfg = {"schema": 1, "task": "counting", "n_max": 10**15, "output": "run",
           "model": {"scenario": "single_state",
                     "params": {"gamma": 1.0, "omega_rabi": 0.7}},
           "grids": {"time": {"start": 0.0, "stop": 1.0, "count": 2}}}
    rc = cli.main(["counting", "--config", str(write_config(tmp_path, cfg))])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "MemoryError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_unwritable_output_exits_2(tmp_path, capsys):
    """An output path in a missing directory is reported as a JSON error
    with exit code 2, not a traceback."""
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task="steady"))
    rc = cli.main(["steady", "--config", str(cfg_path),
                   "--out", str(tmp_path / "missing" / "x")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


def test_unwritable_sidecar_leaves_no_csv(tmp_path, capsys, monkeypatch):
    """When the sidecar cannot be written the run exits 2 and removes the
    CSV it wrote, so no result file is left that looks complete."""
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task="steady"))
    (tmp_path / "x.meta.json").mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(["steady", "--config", str(cfg_path), "--out", "x"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"
    assert not (tmp_path / "x_steady.csv").exists()


def test_csv_equals_library_series(tmp_path):
    """The CLI writes the library's series unchanged (%.16e round-trips
    float64), so it cannot drift from the library."""
    spec = cli.build_model(cli.parse_config(json.dumps(FIG2A_CONFIG)))
    tau = {"start": 0.0, "stop": 20.0, "count": 21}
    cases = {"spectrum": (fs.incoherent_spectrum, FIG2A_CONFIG["grids"]),
             "c1": (fs.c1, {"tau": tau}), "c2": (fs.c2, {"tau": tau}),
             "g2": (fs.g2, {"tau": tau})}
    for task, (fn, grids) in cases.items():
        cfg = dict(FIG2A_CONFIG, task=task, grids=grids,
                   output=str(tmp_path / task))
        assert cli.main([task, "--config", str(write_config(tmp_path, cfg))]) == 0
        lines = [l for l in (tmp_path / f"{task}_{task}.csv").read_text().splitlines()
                 if not l.startswith("#")][1:]
        rows = np.array([[float(x) for x in l.split(",")] for l in lines])
        (name, g), = grids.items()
        series = fn(spec, np.linspace(g["start"], g["stop"], g["count"]))
        assert np.array_equal(rows[:, 0], series.abscissa), task
        assert np.array_equal(rows[:, 1], np.real(series.values)), task
        if task == "c1":
            assert np.array_equal(rows[:, 2], np.imag(series.values))
    # a sweep row is the observable of the model rebuilt at that detuning;
    # the config's own detuning is overridden by the grid
    model = json.loads(json.dumps(FIG2A_CONFIG["model"]))
    model["params"]["detuning"] = 0.5
    delta = {"start": -3.0, "stop": 3.0, "count": 7}
    for task, fn in (("mandel-sweep", fs.stationary_mandel),
                     ("lineshape-sweep", fs.line_shape)):
        cfg = dict(FIG2A_CONFIG, task=task, model=model, grids={"delta": delta},
                   output=str(tmp_path / "sweep"))
        assert cli.main([task, "--config", str(write_config(tmp_path, cfg))]) == 0
        csv = tmp_path / f"sweep_{task.replace('-', '_')}.csv"
        lines = [l for l in csv.read_text().splitlines() if not l.startswith("#")][1:]
        rows = np.array([[float(x) for x in l.split(",")] for l in lines])
        grid = np.linspace(delta["start"], delta["stop"], delta["count"])
        want = [fn(dataclasses.replace(spec, detuning=float(d))) for d in grid]
        assert np.array_equal(rows[:, 0], grid), task
        assert np.array_equal(rows[:, 1], want), task


@pytest.mark.parametrize("task", ["steady", "spectrum", "mandel-sweep"])
def test_run_builds_its_model_once(task, tmp_path, monkeypatch):
    """parse_config builds and validates the ModelSpec; the run uses that
    one and builds no second."""
    calls = []
    build = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda cfg: calls.append(cfg) or build(cfg))
    cfg = dict(FIG2A_CONFIG, output=str(tmp_path / "once"),
               grids=dict(FIG2A_CONFIG["grids"],
                          delta={"start": -1.0, "stop": 1.0, "count": 3}))
    assert cli.main([task, "--config", str(write_config(tmp_path, cfg))]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("task", ["c1", "spectrum", "counting", "mandel-sweep"])
def test_run_builds_each_grid_once(task, tmp_path, monkeypatch):
    """parse_config builds each grid once, to check it, and the run reads
    those points: one build per grid of the config per run."""
    calls = []
    for name in ("linspace", "geomspace"):
        space = getattr(np, name)
        monkeypatch.setattr(np, name, lambda start, *args, space=space, **kwargs:
                            calls.append(start) or space(start, *args, **kwargs))
    grids = {"tau": {"start": 0.0, "stop": 2.0, "count": 3},
             "time": {"start": 0.0, "stop": 2.0, "count": 3},
             "delta": {"start": -1.0, "stop": 1.0, "count": 3}}
    for names in ([cli.TASK_GRID[task]], ["omega", *grids]):
        cfg = dict(FIG2A_CONFIG, task=task, n_max=4, output=str(tmp_path / task),
                   grids={n: dict(FIG2A_CONFIG["grids"], **grids)[n] for n in names})
        calls.clear()
        assert cli.main([task, "--config", str(write_config(tmp_path, cfg))]) == 0
        assert sorted(calls) == sorted(cfg["grids"][n]["start"] for n in names)


@pytest.mark.parametrize("task", ["spectrum", "counting"])
def test_task_solves_steady_state_once(task, tmp_path, monkeypatch):
    calls = []
    solve = steady.steady_state
    monkeypatch.setattr(steady, "steady_state",
                        lambda gen: calls.append(gen) or solve(gen))
    cfg = dict(FIG2A_CONFIG, task=task, n_max=4, output=str(tmp_path / task))
    cfg["grids"] = dict(FIG2A_CONFIG["grids"],
                        time={"start": 0.0, "stop": 3.0, "count": 4})
    assert cli.main([task, "--config", str(write_config(tmp_path, cfg)),
                     "--threads", "4"]) == 0
    assert len(calls) == 1


def test_counting_csv_has_no_nan(tmp_path, capsys):
    cfg = dict(FIG2A_CONFIG, task="counting", n_max=4, output=str(tmp_path / "q"),
               grids={"time": {"start": 0.0, "stop": 2.0, "count": 3}})
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["counting", "--config", str(cfg_path)]) == 0
    text = (tmp_path / "q_counting.csv").read_text()
    assert "nan" not in text
    meta = dict(l[2:].split(" = ") for l in text.splitlines() if l.startswith("# "))
    assert 0.0 <= float(meta["aliasing_bound"]) <= 1e-14
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert float(rows[0][3]) == 0.0          # Q(0) is its t -> 0 limit
    # a dark model has no counts, so Q(t > 0) is undefined: exit 3, no CSV
    dark = dict(cfg, output=str(tmp_path / "dark"),
                model={"scenario": "single_state",
                       "params": {"gamma": 1.0, "omega_rabi": 0.0}})
    assert cli.main(["counting", "--config", str(write_config(tmp_path, dark))]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ZeroCounts"
    assert not (tmp_path / "dark_counting.csv").exists()
    # nor has it a stationary Mandel factor
    sweep = dict(dark, task="mandel-sweep", grids={"delta": {"start": 0.0, "stop": 1.0,
                                                             "count": 2}})
    assert cli.main(["mandel-sweep", "--config", str(write_config(tmp_path, sweep))]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ZeroCounts"
    assert not (tmp_path / "dark_mandel_sweep.csv").exists()


def test_exit_code_numerical_failure(tmp_path, capsys):
    cfg = {"schema": 1,
           "model": {"scenario": "lifetime_fluct",
                     "params": {"gammas": [1.0, 2.0],
                                "phi": [[0.0, 0.0], [0.0, 0.0]],
                                "omega_rabi": 0.7}},
           "task": "steady", "output": str(tmp_path / "bad")}
    cfg_path = write_config(tmp_path, cfg)
    rc = cli.main(["steady", "--config", str(cfg_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NullSpaceDegenerate"
    # entries above 1e154 overflow no tolerance and draw no numpy warning (a
    # warning raised here fails the test); the slow hops (phi = 0.01) are
    # not lost beside them: the drive saturates both blocks (bb = 1/4) at
    # Rabi frequency 1e200 and leaves them dark (bb = 0) at detuning 1e300
    inline = {"r_max": 2, "delta_omega": [0.1, -0.1], "gamma": [1.0, 1.0],
              "omega_rabi": [0.7, 0.7], "phi": [[0.0, 0.01], [0.01, 0.0]]}
    for name, huge, excited in (("rabi", {"omega_rabi": [1e200, 1e200]}, 0.25),
                                ("detuning", {"detuning": 1e300}, 0.0)):
        cfg = {"schema": 1, "model": {"inline": dict(inline, **huge)},
               "task": "steady", "output": str(tmp_path / name)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["steady", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 0, name
        assert capsys.readouterr().err == "", name
        rows = [l.split(",") for l in (tmp_path / f"{name}_steady.csv").read_text()
                .splitlines() if not l.startswith("#")][1:]
        assert [float(r[1]) for r in rows] == pytest.approx([0.5, 0.5], rel=1e-12), name
        assert [float(r[2]) for r in rows] == pytest.approx([excited] * 2,
                                                            rel=1e-12, abs=1e-300), name
    # no decay and no drive: L = 0, whose four singular values all sit at
    # the tolerance dim eps |L|_F = 0 and must all count as zero
    zero = {"zero_inline": {"inline": {"r_max": 1, "delta_omega": [0.0],
                                       "gamma": [0.0], "omega_rabi": [0.0]}},
            "zero_scenario": {"scenario": "single_state",
                              "params": {"gamma": 0.0, "omega_rabi": 0.0}}}
    for name, model in zero.items():
        cfg = {"schema": 1, "model": model, "task": "steady",
               "output": str(tmp_path / name)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["steady", "--config", str(write_config(tmp_path, cfg))])
        assert rc == 3, name
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, (name, lines)
        err = json.loads(lines[0])
        assert err["error"] == "NullSpaceDegenerate", name
        assert "nullity is 4" in err["message"], name
    # a matrix exponential that overflows, at a huge Rabi frequency or at a
    # huge time, fails with exit 3 rather than write NaN, and draws no numpy
    # warning (at t = 5e299 P_n itself is finite, and its truncation warns)
    single = {"scenario": "single_state", "params": {"gamma": 1.0, "omega_rabi": 1e20}}
    chain = {"scenario": "diffusion_chain",
             "params": {"n_sites": 3, "omega_profile": [1e20, 1.0, 0.5],
                        "phi_hop": 0.5, "gamma": 1.0}}
    overflows = {
        "huge_rabi": ("counting", single, {"time": {"start": 0.0, "stop": 3.0, "count": 3}}),
        "huge_time": ("counting", dict(single, params={"gamma": 1.0, "omega_rabi": 0.7}),
                      {"time": {"start": 0.0, "stop": 1e300, "count": 3}}),
        "huge_chain": ("g2", chain, {"tau": {"start": 0.0, "stop": 4.0, "count": 4}})}
    for name, (task, model, grids) in overflows.items():
        cfg = {"schema": 1, "model": model, "task": task, "grids": grids, "n_max": 5,
               "output": str(tmp_path / name)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.filterwarnings("ignore", "P_n truncation", UserWarning)
            rc = cli.main([task, "--config", str(write_config(tmp_path, cfg, f"{name}.json"))])
        assert rc == 3, name
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, (name, lines)
        assert json.loads(lines[0])["error"] == "FloatingPointError", name
        assert not list(tmp_path.glob(f"{name}_*.csv")), name
        assert not (tmp_path / f"{name}.meta.json").exists(), name


def test_mandel_sweep_reaches_the_detuning_limit(tmp_path):
    """fig5 swept out to delta = 1e6, where Q_st lies within 1e-10 of the
    large-detuning limit 301.114 (the dense nullity check raised "nullity
    is 2" from delta = 2e4 on, so the sweep exited 3)."""
    params = {"gammas": [1.0, 10.0], "gamma_cross": [[0.0, 0.02], [0.0015, 0.0]],
              "omega_rabi": 1.0}
    cfg = {"schema": 1, "task": "mandel-sweep",
           "model": {"scenario": "light_assisted", "params": params},
           "grids": {"delta": {"start": 1e2, "stop": 1e6, "count": 5, "spacing": "log"}},
           "output": str(tmp_path / "fig5")}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["mandel-sweep", "--config", str(write_config(tmp_path, cfg))]) == 0
    lines = [l for l in (tmp_path / "fig5_mandel_sweep.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "delta,q_st"
    rows = [[float(v) for v in l.split(",")] for l in lines[1:]]
    assert [r[0] for r in rows] == [1e2, 1e3, 1e4, 1e5, 1e6]
    limit = fs.mandel_detuning_limit(fs.light_assisted(**params))
    assert rows[-1][1] == pytest.approx(limit, rel=1e-10)


def test_log_grid_keeps_its_endpoints(tmp_path):
    """A log grid starts and stops exactly at its configured values, and
    the observable is computed there."""
    delta = {"start": 0.3, "stop": 30.0, "count": 7, "spacing": "log"}
    cfg = dict(FIG2A_CONFIG, task="lineshape-sweep", grids={"delta": delta},
               output=str(tmp_path / "log"))
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["lineshape-sweep", "--config", str(cfg_path)]) == 0
    lines = [l for l in (tmp_path / "log_lineshape_sweep.csv").read_text().splitlines()
             if not l.startswith("#")][1:]
    rows = np.array([[float(x) for x in l.split(",")] for l in lines])
    assert rows[0, 0] == 0.3 and rows[-1, 0] == 30.0
    assert np.allclose(rows[:, 0], 0.3 * 10.0 ** (np.arange(7) / 3), rtol=1e-14, atol=0)
    spec = cli.build_model(cli.parse_config(json.dumps(cfg)))
    assert rows[0, 1] == fs.line_shape(dataclasses.replace(spec, detuning=0.3))
    assert rows[-1, 1] == fs.line_shape(dataclasses.replace(spec, detuning=30.0))


def test_parser_built_once_per_process(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task="steady",
                                           output=str(tmp_path / "once")))
    cli._parser.cache_clear()
    for _ in range(3):
        assert cli.main(["steady", "--config", str(cfg_path)]) == 0
    assert cli._parser.cache_info().misses == 1
    with pytest.raises(SystemExit):
        cli.main(["steady"])
    assert "the following arguments are required: --config" in capsys.readouterr().err


# Runs CLI tasks in one fresh interpreter and reports, after the import and
# after each task, the scipy modules loaded; with "block" as its first
# argument, every import of scipy raises ImportError, as where scipy is not
# installed.
_IMPORT_PROBE = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from fluorospec import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for task, path in json.loads(sys.argv[2]):
    assert cli.main([task, "--config", path]) == 0, task
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""

_TASK_GRIDS = {"steady": {}, "spectrum": FIG2A_CONFIG["grids"],
               "c1": {"tau": {"start": 0.0, "stop": 2.0, "count": 3}},
               "c2": {"tau": {"start": 0.0, "stop": 2.0, "count": 3}},
               "g2": {"tau": {"start": 0.0, "stop": 2.0, "count": 3}},
               "counting": {"time": {"start": 0.0, "stop": 2.0, "count": 3}},
               "mandel-sweep": {"delta": {"start": -1.0, "stop": 1.0, "count": 3}},
               "lineshape-sweep": {"delta": {"start": -1.0, "stop": 1.0, "count": 3}}}


def _probe_every_task(tmp_path, where, *probe_args):
    """Runs every CLI task in a fresh interpreter through _IMPORT_PROBE,
    writing its CSVs to tmp_path/where*; the completed process."""
    tasks = []
    for task, g in _TASK_GRIDS.items():
        cfg = dict(FIG2A_CONFIG, task=task, grids=g, n_max=4, output=str(tmp_path / where))
        tasks.append((task, str(write_config(tmp_path, cfg, f"{where}_{task}.json"))))
    return subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *probe_args,
                           json.dumps(tasks)], capture_output=True, text=True)


def test_no_task_imports_scipy(tmp_path):
    """``import fluorospec`` and every CLI task, run in one fresh
    interpreter, load no scipy module of any name, and each writes the same
    CSV as a run in this process, where the tests have loaded scipy."""
    proc = _probe_every_task(tmp_path, "fresh", "load")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[]] * (1 + len(_TASK_GRIDS))
    for task in _TASK_GRIDS:
        cfg = dict(FIG2A_CONFIG, task=task, grids=_TASK_GRIDS[task], n_max=4,
                   output=str(tmp_path / "here"))
        assert cli.main([task, "--config", str(write_config(tmp_path, cfg))]) == 0, task
        name = f"_{task.replace('-', '_')}.csv"
        assert ((tmp_path / f"fresh{name}").read_bytes()
                == (tmp_path / f"here{name}").read_bytes()), task


def test_every_task_runs_without_scipy(tmp_path):
    """With every import of scipy failing, as where it is not installed,
    each CLI task exits 0 and writes its CSV."""
    proc = _probe_every_task(tmp_path, "blocked", "block")
    assert proc.returncode == 0, proc.stderr
    for task in _TASK_GRIDS:
        assert (tmp_path / f"blocked_{task.replace('-', '_')}.csv").stat().st_size > 0, task


def test_console_entry_point(tmp_path):
    cfg_path = write_config(tmp_path, dict(FIG2A_CONFIG, task="steady",
                                           output=str(tmp_path / "sub")))
    proc = subprocess.run(
        [sys.executable, "-m", "fluorospec.cli", "steady",
         "--config", str(cfg_path), "--verbose"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub_steady.csv").exists()


def test_mandel_sweep_fig5_shape(tmp_path):
    cfg = {"schema": 1,
           "model": {"scenario": "light_assisted",
                     "params": {"gammas": [1.0, 10.0],
                                "gamma_cross": [[0.0, 0.02], [0.0015, 0.0]],
                                "omega_rabi": 1.0}},
           "task": "mandel-sweep",
           "grids": {"delta": {"start": 0.0, "stop": 30.0, "count": 11}},
           "output": str(tmp_path / "sweep")}
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["mandel-sweep", "--config", str(cfg_path)]) == 0
    lines = [l for l in (tmp_path / "sweep_mandel_sweep.csv").read_text().splitlines()
             if not l.startswith("#")][1:]
    q = np.array([float(l.split(",")[1]) for l in lines])
    # super-Poissonian everywhere; a dip at small detuning, then a rise
    # toward the large-detuning plateau
    assert q.min() > 100.0
    assert np.all(np.diff(q[1:]) > 0.0)
    assert q[-1] == pytest.approx(298.12, rel=1e-3)


def test_spectrum_fig5_far_detuned(tmp_path):
    cfg = {"schema": 1,
           "model": {"scenario": "light_assisted",
                     "params": {"gammas": [1.0, 10.0],
                                "gamma_cross": [[0.0, 0.02], [0.0015, 0.0]],
                                "omega_rabi": 1.0, "detuning": 100.0}},
           "task": "spectrum",
           "grids": {"omega": {"start": -150.0, "stop": 150.0, "count": 31}},
           "output": str(tmp_path / "far")}
    assert cli.main(["spectrum", "--config", str(write_config(tmp_path, cfg))]) == 0
    lines = [l for l in (tmp_path / "far_spectrum.csv").read_text().splitlines()
             if not l.startswith("#")][1:]
    s_inc = np.array([float(l.split(",")[1]) for l in lines])
    assert s_inc.size == 31 and np.all(np.isfinite(s_inc))
