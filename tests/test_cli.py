"""Configuration schema, static validation, command dispatch, exit codes and
artifact determinism."""
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

from polyharm import cli
from polyharm import config as cf
from polyharm import serialize as ser
from polyharm.errors import ConfigurationError, NumericalContractError
from polyharm.fields import GridMap
from polyharm import geometry as geo


def _cfg(**kwargs):
    return cf.ExperimentConfig.from_dict(kwargs)


CIRCLE_SPHERE = {
    "domain": {"kind": "flat_torus", "dim": 1},
    "target": {"kind": "round_sphere_polar", "dim": 2},
    "map": {"exprs": ["x1", "pi/2 + 2*sin(x1)/5"]},
    "grid_shape": [32],
}


def test_config_roundtrip():
    cfg = _cfg(command="tension", **CIRCLE_SPHERE)
    text = cfg.to_canonical_json()
    again = cf.ExperimentConfig.from_json(text)
    assert again == cfg
    assert again.to_canonical_json() == text


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError, match="unknown config keys"):
        _cfg(command="tension", wibble=1)


def test_config_rejects_bad_schema():
    with pytest.raises(ConfigurationError):
        _cfg(command="tension", schema_version=99)


def test_validate_well_formed_is_empty():
    cfg = _cfg(command="tension", **CIRCLE_SPHERE)
    assert cf.validate(cfg) == []


def test_shipped_configs_load_and_validate():
    # every configuration under configs/ parses and passes static validation,
    # so the console script can run each one as its "command" says
    paths = sorted(pathlib.Path(__file__).resolve().parents[1].glob("configs/*.json"))
    assert paths
    for path in paths:
        assert cf.validate(cf.ExperimentConfig.load(str(path))) == [], path.name


def test_validate_capability_diagnostic():
    cfg = _cfg(command="tau-es4",
               domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "user_metric", "dim": 2, "jet_order": 1,
                       "metric": [["1", "0"], ["0", "1"]]},
               map={"exprs": ["x1", "0"]}, grid_shape=[16])
    diags = cf.validate(cfg)
    assert any("capability" in d for d in diags)


def test_validate_resolution_diagnostic():
    cfg = _cfg(command="tau-k", order=4, eval_mode="grid_fd",
               domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "euclidean", "dim": 1},
               map={"exprs": ["sin(x1)"]}, grid_shape=[8])
    diags = cf.validate(cfg)
    assert any("resolution policy" in d for d in diags)


def test_validate_window_bounds():
    cfg = _cfg(command="equator-check", order=3, window=[[0, 99]], **CIRCLE_SPHERE)
    assert any("window" in d for d in cf.validate(cfg))


@pytest.mark.parametrize("exc,code", sorted(cli.EXIT_CODES.items(), key=lambda kv: kv[1]))
def test_exit_code_partition(exc, code):
    assert cli.EXIT_CODES[exc] == code
    assert len(set(cli.EXIT_CODES.values())) == len(cli.EXIT_CODES)


def test_run_tension_identity():
    cfg = _cfg(command="tension",
               domain={"kind": "flat_torus", "dim": 2},
               target={"kind": "euclidean", "dim": 2},
               map={"exprs": ["x1", "x2"]}, grid_shape=[8, 8])
    art = cli.run(cfg)
    assert art.summary["max_abs_tension"] <= 1e-12


def test_run_latitude_search():
    cfg = _cfg(command="latitude-search", latitude={"m": 2, "order": 2})
    art = cli.run(cfg)
    assert art.summary["roots_found"] == 1
    assert abs(art.summary["alpha_first"] - 0.785398163) <= 1e-9


def test_latitude_search_leaves_sympy_physics_unimported():
    # sympy.simplify imports sympy.physics.units on its first call; no model
    # build may pay for that
    script = ("import sys; from polyharm import cli, config; "
              "cli.run(config.ExperimentConfig.from_dict({'command': 'latitude-search', "
              "'latitude': {'m': 2, 'order': 3}})); "
              "print(sorted(k for k in sys.modules if k.startswith('sympy.physics')))")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=300, check=True)
    assert out.stdout.strip() == "[]"


def test_run_energy_and_tau(tmp_path):
    cfg = _cfg(command="energy", order=2, out=str(tmp_path / "e.txt"), **CIRCLE_SPHERE)
    art = cli.run(cfg)
    assert art.summary["energy"] > 0
    cfg2 = _cfg(command="tau-k", order=3, **CIRCLE_SPHERE)
    art2 = cli.run(cfg2)
    assert art2.summary["max_abs"] > 0


def test_run_equator_check():
    cfg = _cfg(
        command="equator-check", order=3, window=[[0, 40]],
        domain={"kind": "flat_torus", "dim": 1},
        target={"kind": "round_sphere_polar", "dim": 2},
        map={"exprs": [
            "x1",
            "pi/2 + Piecewise((exp(-1/((x1 - 5/2)*(9/2 - x1)))/10, (x1 > 5/2) & (x1 < 9/2)), (0, True))",
        ]},
        grid_shape=[128],
    )
    art = cli.run(cfg)
    assert art.summary["max_y_on_window"] <= 1e-10
    assert art.summary["off_window_ratio"] > 0


def test_run_pair_bound():
    cfg = _cfg(command="pair-bound", order=3,
               domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "round_sphere_polar", "dim": 2},
               map={"exprs": ["x1", "pi/2 + 2*sin(x1)/5"]},
               map2={"exprs": ["x1 + sin(2*x1)/10", "pi/2 + 3*cos(x1)/10"]},
               grid_shape=[128])
    art = cli.run(cfg)
    lemmas = {rec[0] for rec in art.records}
    assert lemmas == {"full_delta_z", "delta_map", "delta_differential",
                      "a_difference", "da_difference", "fk_difference"}


def test_run_flow():
    cfg = _cfg(command="flow", order=1, eval_mode="grid_fd",
               flow={"dt": 5e-3, "steps": 50},
               domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "euclidean", "dim": 1},
               map={"exprs": ["sin(x1)/5"]}, grid_shape=[32])
    art = cli.run(cfg)
    energies = [rec[1] for rec in art.records]
    assert energies[-1] < energies[0]


def test_artifact_determinism(tmp_path):
    cfg = _cfg(command="aronszajn", order=3, **CIRCLE_SPHERE)
    a = cli.run(cfg).render()
    b = cli.run(cfg).render()
    assert a == b
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"command": "aronszajn", "order": 3, **CIRCLE_SPHERE}))
    out1, out2 = tmp_path / "a1.txt", tmp_path / "a2.txt"
    assert cli.main(["aronszajn", "--config", str(cfgf), "--out", str(out1)]) == 0
    assert cli.main(["aronszajn", "--config", str(cfgf), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_artifact_embeds_config_echo():
    cfg = _cfg(command="tension", **CIRCLE_SPHERE)
    art = cli.run(cfg)
    assert cfg.to_canonical_json() in art.render()


def test_main_exit_codes(tmp_path):
    # configuration error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "tau-k", "grid_shape": [8]}))
    assert cli.main(["tau-k", "--config", str(bad)]) == 2
    # capability error from static validation
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps({
        "command": "tau-es4",
        "domain": {"kind": "flat_torus", "dim": 1},
        "target": {"kind": "user_metric", "dim": 2, "jet_order": 1,
                   "metric": [["1", "0"], ["0", "1"]]},
        "map": {"exprs": ["x1", "0"]}, "grid_shape": [16]}))
    assert cli.main(["tau-es4", "--config", str(cap)]) == 3
    # chart exit
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps({
        "command": "tension",
        "domain": {"kind": "flat_torus", "dim": 1},
        "target": {"kind": "round_sphere_polar", "dim": 2},
        "map": {"exprs": ["x1", "3.3"]}, "grid_shape": [16]}))
    assert cli.main(["tension", "--config", str(chart)]) == 4
    # no map on the circle: the shift of x1**2 by the period is not constant
    wind = tmp_path / "wind.json"
    wind.write_text(json.dumps({
        "command": "tension", "eval_mode": "analytic_jet",
        "domain": {"kind": "flat_torus", "dim": 1},
        "target": {"kind": "euclidean", "dim": 1},
        "map": {"exprs": ["x1**2"]}, "grid_shape": [16]}))
    assert cli.main(["tension", "--config", str(wind)]) == 2
    # degenerate input: sup ratio of an identically harmonic map
    degen = tmp_path / "degen.json"
    degen.write_text(json.dumps({
        "command": "aronszajn", "order": 3,
        "domain": {"kind": "flat_torus", "dim": 1},
        "target": {"kind": "round_sphere_polar", "dim": 2},
        "map": {"exprs": ["x1", "pi/2"]}, "grid_shape": [32]}))
    assert cli.main(["aronszajn", "--config", str(degen)]) == 6
    # command mismatch between argv and config
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"command": "tension", **CIRCLE_SPHERE}))
    assert cli.main(["energy", "--config", str(ok)]) == 2


def test_validate_subcommand(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"command": "tension", **CIRCLE_SPHERE}))
    assert cli.main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "tau-k", "grid_shape": [8]}))
    assert cli.main(["validate", "--config", str(bad)]) == 2
    assert capsys.readouterr().out.strip()


def test_gridmap_file_roundtrip(tmp_path):
    dom = geo.flat_torus(1)
    tgt = geo.round_sphere_polar(2)
    x = dom.coords[0]
    gm = GridMap.from_exprs(dom, tgt, (32,), (x, sp.pi / 2 + sp.sin(x) / 4),
                            eval_mode="grid_fd")
    path = tmp_path / "map.txt"
    ser.save_gridmap(str(path), gm)
    loaded = ser.load_gridmap(str(path), dom, tgt)
    assert np.array_equal(loaded.values, gm.values)
    assert np.array_equal(loaded.winding, gm.winding)
    ser.save_gridmap(str(path), loaded)
    assert path.read_text() == path.read_text()

    cfg = _cfg(command="tension", eval_mode="grid_fd",
               domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "round_sphere_polar", "dim": 2},
               map={"grid_file": str(path)}, grid_shape=[32])
    art = cli.run(cfg)
    assert art.summary["max_abs_tension"] > 0


def test_user_metric_models_from_config():
    cfg = _cfg(command="tension",
               domain={"kind": "user_metric", "dim": 1,
                       "metric": [["(1 + sin(x1)/3)**2"]], "periodic": True},
               target={"kind": "user_metric", "dim": 2,
                       "metric": [["sin(y2)**2", "0"], ["0", "1"]]},
               map={"exprs": ["x1", "pi/2 + sin(x1)/4"]}, grid_shape=[32])
    art = cli.run(cfg)
    assert np.isfinite(art.summary["max_abs_tension"])
    assert art.summary["max_abs_tension"] > 0


def test_gridmap_chart_mismatch(tmp_path):
    dom = geo.flat_torus(1)
    tgt = geo.round_sphere_polar(2)
    x = dom.coords[0]
    gm = GridMap.from_exprs(dom, tgt, (16,), (x, sp.pi / 2), eval_mode="grid_fd")
    path = tmp_path / "map.txt"
    ser.save_gridmap(str(path), gm)
    with pytest.raises(ConfigurationError, match="do not match"):
        ser.load_gridmap(str(path), dom, geo.round_sphere_polar(3))


def test_nonfinite_artifact_exits_5_without_writing(tmp_path):
    # 1/y1**2 at the nodes where sin(x1) = 0 makes the tension -inf there
    spec = {"command": "tension",
            "domain": {"kind": "flat_torus", "dim": 1},
            "target": {"kind": "user_metric", "dim": 1, "metric": [["1/y1**2"]]},
            "map": {"exprs": ["sin(x1)"]}, "grid_shape": [8]}
    with pytest.raises(NumericalContractError, match="non-finite"):
        cli.run(_cfg(**spec))
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(spec))
    out = tmp_path / "tension.txt"
    assert cli.main(["tension", "--config", str(cfgf), "--out", str(out)]) == 5
    assert not out.exists()


def test_function_without_numpy_form_exits_3_without_writing(tmp_path, capsys):
    # besselj has no numpy evaluator: the map's node evaluator is refused
    # when it is built, not with a NameError from the generated code
    spec = {"command": "tau-k", "order": 2,
            "domain": {"kind": "flat_torus", "dim": 1},
            "target": {"kind": "round_sphere_polar", "dim": 2},
            "map": {"exprs": ["x1", "pi/2 + besselj(0, x1)/5"]}, "grid_shape": [16]}
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(spec))
    out = tmp_path / "tau.txt"
    assert cli.main(["tau-k", "--config", str(cfgf), "--out", str(out)]) == 3
    assert not out.exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error_type"] == "CapabilityError" and "besselj" in record["message"]


def test_removed_config_keys_are_unknown(tmp_path):
    # no code reads these keys, so a config that carries one, even at its
    # old default, is rejected as carrying an unknown key (exit code 2)
    echo = cli.run(_cfg(command="tension", **CIRCLE_SPHERE)).render()
    cfgf = tmp_path / "cfg.json"
    for key, value in [("tolerances", {}), ("tolerances", {"es4_gap": 1e-6}), ("seed", 0), ("workers", 1)]:
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            _cfg(command="tension", **{key: value}, **CIRCLE_SPHERE)
        cfgf.write_text(json.dumps({"command": "tension", key: value, **CIRCLE_SPHERE}))
        assert cli.main(["tension", "--config", str(cfgf)]) == 2, key
        assert f'"{key}"' not in echo


def test_run_leaves_numpy_global_generator_alone():
    np.random.seed(11)
    before = np.random.get_state()[1].copy()
    cli.run(_cfg(command="tension", **CIRCLE_SPHERE))
    assert np.array_equal(np.random.get_state()[1], before)


def test_tau_es4_evaluates_lapbar_omega0_pair_once(monkeypatch):
    from polyharm import polytension as pt

    calls = []
    paths = pt.lapbar_omega0_paths

    def counted(gmap):
        calls.append(gmap)
        return paths(gmap)

    monkeypatch.setattr(pt, "lapbar_omega0_paths", counted)
    cfg = _cfg(command="tau-es4", domain={"kind": "flat_torus", "dim": 1},
               target={"kind": "round_sphere_polar", "dim": 2},
               map={"exprs": ["x1", "pi/2"]}, grid_shape=[16])
    art = cli.run(cfg)
    assert len(calls) == 1
    assert set(art.summary) == {"max_abs", "max_abs_hat", "max_abs_xi1"}


def _main(tmp_path, spec: dict) -> tuple[int, pathlib.Path]:
    """Exit code of ``polyharm <command> --config <spec> --out <file>`` and
    the artifact path."""
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(spec))
    out = tmp_path / "artifact.txt"
    return cli.main([spec["command"], "--config", str(cfgf), "--out", str(out)]), out


TORUS_SPHERE = {
    "domain": {"kind": "flat_torus", "dim": 2},
    "target": {"kind": "round_sphere_polar", "dim": 2},
    "map": {"exprs": ["x1 + sin(x2)/5", "pi/2 + cos(x1)/4"]},
}


def test_tau_es4_on_curved_grid_target_exits_0(tmp_path):
    spec = {"command": "tau-es4", "eval_mode": "grid_fd", "grid_shape": [48, 48], **TORUS_SPHERE}
    assert cf.validate(_cfg(**spec)) == []
    code, out = _main(tmp_path, spec)
    assert code == 0 and out.exists()
    assert cli.run(_cfg(**spec)).summary["max_abs_hat"] > 0.0


def test_lapbar_omega0_path_gap_exits_5_without_writing(tmp_path, monkeypatch, capsys):
    from polyharm import polytension as pt

    paths = pt.lapbar_omega0_paths

    def apart(gmap):
        a, b = paths(gmap)
        return a, b + 10 * pt.ES4_PATH_TOL * max(1.0, float(np.max(np.abs(a))))

    monkeypatch.setattr(pt, "lapbar_omega0_paths", apart)
    code, out = _main(tmp_path, {"command": "tau-es4", "grid_shape": [12, 12], **TORUS_SPHERE})
    assert code == 5 and not out.exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error_type"] == "NumericalContractError" and "disagree" in record["message"]


def test_run_tower_grid_fd_reports_richardson_error():
    art = cli.run(_cfg(command="tower", order=2, eval_mode="grid_fd", **{**CIRCLE_SPHERE, "grid_shape": [64]}))
    assert art.summary["levels"] == 2
    assert 0.0 < art.summary["richardson_error"] < 1e-2
    assert len(art.records) == 2 * 64 * 2


def test_run_variation_check():
    cfg = _cfg(command="variation-check", order=2, variation={"exprs": ["0", "sin(x1)/3"]}, **CIRCLE_SPHERE)
    assert cf.validate(cfg) == []
    assert cli.run(cfg).summary["discrepancy"] <= 1e-6


def test_run_reduce_residual():
    art = cli.run(_cfg(command="reduce-residual", order=3, eval_mode="grid_fd",
                       **{**CIRCLE_SPHERE, "grid_shape": [64]}))
    assert len(art.records) == 64
    assert 0.0 < art.summary["sup_residual"] < 1e-3


def test_artifact_goes_to_stdout_without_out(tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"command": "tension", **CIRCLE_SPHERE}))
    assert cli.main(["tension", "--config", str(cfgf)]) == 0
    assert capsys.readouterr().out == cli.run(_cfg(command="tension", **CIRCLE_SPHERE)).render()
    assert list(tmp_path.iterdir()) == [cfgf]


def test_flow_converts_an_analytic_config_to_grid_fd():
    cfg = _cfg(command="flow", order=2, flow={"dt": 1e-4, "steps": 2}, **{**CIRCLE_SPHERE, "grid_shape": [64]})
    assert cfg.eval_mode == "analytic_jet"
    art = cli.run(cfg)
    energies = [rec[1] for rec in art.records]
    assert len(energies) == 3 and energies[-1] < energies[0]


# -- the static resolution rule reads the tower depth of each command ----------


@pytest.mark.parametrize("command,order", [("aronszajn", 3), ("energy", 3), ("energy", 5)])
def test_shallow_towers_run_on_a_coarse_grid(tmp_path, command, order):
    spec = {"command": command, "order": order, "eval_mode": "grid_fd", "grid_shape": [20, 20], **TORUS_SPHERE}
    assert cf.validate(_cfg(**spec)) == []
    code, out = _main(tmp_path, spec)
    assert code == 0 and out.exists()


@pytest.mark.parametrize("command,order,nodes", [("aronszajn", 4, 32), ("energy", 6, 32), ("tau-k", 3, 32),
                                                 ("tau-es4", None, 48)])
def test_static_resolution_rule_matches_the_tower(command, order, nodes):
    # one node short of the tower depth the command builds, validate reports
    # the resolution policy and the computation's tower refuses the grid;
    # with enough nodes validate reports nothing
    from polyharm import polytension as pt, reduction as red, variational as va

    compute = {"aronszajn": lambda g: red.aronszajn_ratio(g, 4), "energy": lambda g: va.energy_k(g, 6),
               "tau-k": lambda g: pt.tau_k(g, 3), "tau-es4": pt.tau4_es}[command]
    for n, refused in ((nodes - 1, True), (nodes, False)):
        cfg = _cfg(command=command, order=order, eval_mode="grid_fd", **{**CIRCLE_SPHERE, "grid_shape": [n]})
        diags = cf.validate(cfg)
        assert any("resolution policy" in d for d in diags) == refused, (n, diags)
        assert diags == [] or refused
        if refused:
            gmap = cf.build_map(cfg, cf.build_domain(cfg.domain), cf.build_target(cfg.target))
            with pytest.raises(ConfigurationError, match=f"depth .* needs >= {nodes} nodes"):
                compute(gmap)


def test_variation_check_in_grid_fd_is_a_capability_diagnostic(tmp_path):
    spec = {"command": "variation-check", "order": 2, "eval_mode": "grid_fd",
            "variation": {"exprs": ["0", "sin(x1)/3"]}, **CIRCLE_SPHERE}
    assert any(d.startswith("capability:") for d in cf.validate(_cfg(**spec)))
    code, out = _main(tmp_path, spec)
    assert code == 3 and not out.exists()


# -- malformed grid files --------------------------------------------------------


def _grid_file_lines(tmp_path) -> list[str]:
    dom, tgt = geo.flat_torus(1), geo.round_sphere_polar(2)
    x = dom.coords[0]
    path = tmp_path / "map.txt"
    ser.save_gridmap(str(path), GridMap.from_exprs(dom, tgt, (32,), (x, sp.pi / 2 + sp.sin(x) / 4),
                                                   eval_mode="grid_fd"))
    return path.read_text().splitlines()


def _edit_rows(lines, edit):
    head = [ln for ln in lines if ln.startswith("#")]
    return head + edit([ln for ln in lines if not ln.startswith("#")])


@pytest.mark.parametrize("defect", ["three_rows_missing", "index_out_of_range", "duplicate_index",
                                    "no_grid_shape", "no_winding", "short_row", "nan_value", "bad_number"])
def test_malformed_grid_file_exits_2_without_writing(tmp_path, defect):
    lines = _grid_file_lines(tmp_path)
    edits = {
        "three_rows_missing": lambda ls: _edit_rows(ls, lambda rows: rows[:10] + rows[13:]),
        "index_out_of_range": lambda ls: _edit_rows(ls, lambda rows: rows[:-1] + ["32" + rows[-1][2:]]),
        "duplicate_index": lambda ls: _edit_rows(ls, lambda rows: rows[:-1] + ["0" + rows[-1][2:]]),
        "no_grid_shape": lambda ls: [ln for ln in ls if not ln.startswith("# grid_shape")],
        "no_winding": lambda ls: [ln for ln in ls if not ln.startswith("# winding")],
        "short_row": lambda ls: _edit_rows(ls, lambda rows: rows[:-1] + [rows[-1].rsplit(" ", 1)[0]]),
        "nan_value": lambda ls: _edit_rows(ls, lambda rows: rows[:-1] + [rows[-1].rsplit(" ", 1)[0] + " nan"]),
        "bad_number": lambda ls: _edit_rows(ls, lambda rows: rows[:-1] + [rows[-1].rsplit(" ", 1)[0] + " 1.2.3"]),
    }
    grid_file = tmp_path / "bad.txt"
    grid_file.write_text("\n".join(edits[defect](lines)) + "\n")
    spec = {"command": "tension", "eval_mode": "grid_fd", "domain": CIRCLE_SPHERE["domain"],
            "target": CIRCLE_SPHERE["target"], "map": {"grid_file": str(grid_file)}, "grid_shape": [32]}
    code, out = _main(tmp_path, spec)
    assert code == 2 and not out.exists()


# -- input defects rejected up front -----------------------------------------------


@pytest.mark.parametrize("fn", ["erf(x1)", "gamma(2 + sin(x1))", "loggamma(2 + sin(x1))"])
def test_scalar_math_function_exits_3_without_writing(tmp_path, capsys, fn):
    spec = {"command": "tension", **CIRCLE_SPHERE, "map": {"exprs": ["x1", f"pi/2 + {fn}/5"]}}
    code, out = _main(tmp_path, spec)
    assert code == 3 and not out.exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error_type"] == "CapabilityError"


@pytest.mark.parametrize("expr", ["1/(x1 - x1)", "nan", "oo", "-oo*x1"])
def test_nonfinite_expression_exits_2_without_writing(tmp_path, expr):
    code, out = _main(tmp_path, {"command": "tension", **CIRCLE_SPHERE, "map": {"exprs": ["x1", expr]}})
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("block,extra", [
    ("target", {"colar": 0.01}),
    ("domain", {"peroid": 3.0}),
    ("map", {"grid_fil": "map.txt"}),
    ("flow", {"dtt": 1e-3}),
])
def test_unknown_nested_key_exits_2_without_writing(tmp_path, block, extra):
    spec = {"command": "flow", "order": 2, "eval_mode": "grid_fd", "flow": {"dt": 1e-4, "steps": 1},
            **CIRCLE_SPHERE, "grid_shape": [32]}
    spec[block] = {**spec[block], **extra}
    diags = cf.validate(_cfg(**spec))
    assert any(f"unknown {block} keys" in d for d in diags), diags
    code, out = _main(tmp_path, spec)
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("t", [0, -1e-5, "nan", "inf", "small"])
def test_variation_step_must_be_finite_and_positive(tmp_path, t):
    spec = {"command": "variation-check", "order": 1, "variation": {"exprs": ["0", "sin(x1)/3"], "t": t},
            **CIRCLE_SPHERE}
    code, out = _main(tmp_path, spec)
    assert code == 2 and not out.exists()


def test_latitude_search_needs_an_order(tmp_path, capsys):
    code, out = _main(tmp_path, {"command": "latitude-search", "latitude": {"m": 2}})
    assert code == 2 and not out.exists()
    assert "order" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])["message"]


@pytest.mark.parametrize("command", ["tau-k", "aronszajn"])
def test_integer_order_commands_reject_es4(tmp_path, command):
    code, out = _main(tmp_path, {"command": command, "order": "es4", **CIRCLE_SPHERE})
    assert code == 2 and not out.exists()


_FLOW = {"command": "flow", "order": 2, "eval_mode": "grid_fd", "flow": {"dt": 1e-4, "steps": 1}, **CIRCLE_SPHERE}


@pytest.mark.parametrize("key,spec", [
    ("order", {"command": "tau-k", "order": 2.7, **CIRCLE_SPHERE}),
    ("order", {"command": "tau-k", "order": True, **CIRCLE_SPHERE}),
    ("variation.exprs", {"command": "variation-check", "order": 1, "variation": {"exprs": ["sin(x1)"]},
                         **CIRCLE_SPHERE}),
    ("dim", {"command": "tension", **CIRCLE_SPHERE, "domain": {"kind": "flat_torus"}}),
    ("flow.steps", {**_FLOW, "flow": {"dt": 1e-4, "steps": 2.5}}),
    ("flow.dt", {**_FLOW, "flow": {"dt": "x", "steps": 1}}),
    ("latitude.m", {"command": "latitude-search", "latitude": {"m": "two", "order": 2}}),
    ("grid_shape", {"command": "tension", **CIRCLE_SPHERE, "grid_shape": [32.5]}),
    ("grid_shape", {"command": "tension", **CIRCLE_SPHERE, "grid_shape": [0]}),
    ("grid_shape", {"command": "tension", "grid_shape": [32], **TORUS_SPHERE}),
    ("window", {"command": "equator-check", "order": 3, "window": [[0.5, 10]], **CIRCLE_SPHERE}),
    # an order below the command's own minimum
    ("order", {"command": "tower", "order": 1, **CIRCLE_SPHERE}),
    ("latitude.order", {"command": "latitude-search", "latitude": {"m": 2, "order": 1}}),
    ("order", {"command": "reduce-residual", "order": 2, **CIRCLE_SPHERE}),
    ("order", {"command": "aronszajn", "order": 2, **CIRCLE_SPHERE}),
    ("order", {"command": "pair-bound", "order": 2, "map2": CIRCLE_SPHERE["map"], **CIRCLE_SPHERE}),
    ("order", {"command": "equator-check", "order": 2, "window": [[0, 10]], **CIRCLE_SPHERE}),
])
def test_malformed_value_exits_2_without_writing(tmp_path, capsys, key, spec):
    # each value is rejected up front, naming its key, and never truncated,
    # coerced or read raw by a builder
    assert any(key in d for d in cf.validate(_cfg(**spec)))
    code, out = _main(tmp_path, spec)
    assert code == 2 and not out.exists()
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error_type"] == "ConfigurationError" and key in record["message"], record
