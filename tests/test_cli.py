import hashlib
import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from minkfeat.cli import main
from minkfeat.scene import (MAX_GRID, MAX_SAMPLES, SceneError, load_scene, parse_scene,
                            scene_to_dict)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def write_scene(tmp_path, data, name="scene.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


FLAT_UMBILIC_SCENE = {
    "version": 1,
    "patch": {
        "form": "timelike",
        "degree": 3,
        "coefficients": [[3, 0, 1.0], [3, 1, 0.3], [3, 2, -0.5], [3, 3, 0.2]],
    },
    "domain": {"halfwidth": 0.15},
    "grid": 65,
    "output": {"formats": ["json", "csv", "svg"]},
}

LIGHTCONE_SCENE = {
    "version": 1,
    "patch": {
        "form": "lightcone",
        "degree": 2,
        "coefficients": [[2, 0, 0.3], [2, 1, 0.1], [2, 2, 0.2]],
    },
    "domain": {"halfwidth": 0.2},
    "grid": 65,
}

EMPTY_PC_SCENE = {
    "version": 1,
    "patch": {
        "form": "timelike",
        "degree": 2,
        "coefficients": [[2, 0, 1.0], [2, 2, -1.0]],
    },
    "domain": {"halfwidth": 0.1},
    "grid": 65,
}

SWEEP_SCENE = {
    "version": 1,
    "patch": {
        "form": "lightcone",
        "degree": 4,
        "coefficients": [[2, 2, 0.6], [3, 0, 0.8], [3, 1, 0.3], [3, 2, -0.2],
                         [3, 3, 0.4]],
    },
    "domain": {"halfwidth": 0.12},
    "grid": 65,
    "family": {"perturbation": [[1, 0, [1.0]]], "range": [-0.003, 0.003], "samples": 5},
    "output": {"formats": ["json"]},
}


def test_analyze_flat_umbilic(tmp_path):
    scene = write_scene(tmp_path, FLAT_UMBILIC_SCENE)
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(tmp_path / "out")])
    assert r.exit_code == 0, r.output
    doc = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert doc["scenario"] == "FLAT_TIMELIKE_UMBILIC"
    assert doc["configuration"] in (0, 1, 2)
    assert {"Lambda3", "Lambda4", "Lambda5", "Lambda6", "Lambda7"} <= set(doc["lambda"])


def test_analyze_lightcone_generic(tmp_path):
    """a20 = 0.3 puts the discriminant field at 0.36 at the origin, so the
    point is a regular degeneracy point without coincidence membership."""
    scene = write_scene(tmp_path, LIGHTCONE_SCENE)
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(tmp_path / "out")])
    assert r.exit_code == 0, r.output
    doc = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert doc["scenario"] == "GENERIC"
    assert doc["point"]["region"] == "OnLD"
    assert "LPL" not in doc["point"]["memberships"]
    from minkfeat import feature_fields, fundamental_forms
    from minkfeat.scene import load_scene

    sc = load_scene(scene)
    assert abs(float(feature_fields(fundamental_forms(sc.patch))["LPL"].jet.eval(0, 0))
               - 0.36) < 1e-14


def test_trace_empty_pc(tmp_path):
    """f = x^2 - z^2: the curvature numerator is -4 at the origin, so the
    parabolic curve is empty in a small window; so are the degeneracy
    locus and the mean-curvature curve, while the coincidence locus is
    the squared crossing of the umbilic."""
    scene = write_scene(tmp_path, EMPTY_PC_SCENE)
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["trace", scene, "--out", str(out), "--format", "json"])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "curves.json").read_text())
    for kind in ("PC", "LD", "MCNC"):
        assert doc[kind]["polylines"] == [] and doc[kind]["isolated"] == []
    crossing = np.vstack([np.array(pl) for pl in doc["LPL"]["polylines"]])
    assert np.min(np.abs([crossing[:, 0] - crossing[:, 1],
                          crossing[:, 0] + crossing[:, 1]]), axis=0).max() < 1e-8


def test_trace_golden_hashes(tmp_path):
    """Byte-stable CSV/SVG for a frozen scene (golden hashes fixed after
    the first verified run)."""
    scene = write_scene(tmp_path, FLAT_UMBILIC_SCENE)
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["trace", scene, "--out", str(out),
                                  "--format", "csv", "--format", "svg"])
    assert r.exit_code == 0, r.output
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("curves.csv", "curves.svg")
    }
    golden_file = GOLDEN / "trace_hashes.json"
    want = json.loads(golden_file.read_text())
    assert got == want


def test_analyze_golden_digest(tmp_path):
    """analysis.json of the criterion-10 scene at grid 65 is byte-equal to
    the digest recorded before the batched zero-set kernels."""
    scene = write_scene(tmp_path, SWEEP_SCENE)
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(out), "--grid", "65"])
    assert r.exit_code == 0, r.output
    want = json.loads((GOLDEN / "criterion_10_hashes.json").read_text())["analysis.json"]
    assert hashlib.sha256((out / "analysis.json").read_bytes()).hexdigest() == want


def test_analyze_builds_one_field_set(tmp_path, jet_work):
    """One analyze op builds the criterion-10 patch's form bundle and its
    four fields once, and every stage shares them (scenario detection
    and the intersection loop rebuilt them: 6 bundles, 5 field sets)."""
    scene = write_scene(tmp_path, SWEEP_SCENE)
    r, work = jet_work(CliRunner().invoke, main, ["analyze", scene, "--out", str(tmp_path)])
    assert r.exit_code == 0, r.output
    assert work["forms"] == 1
    assert work["fields"] == 4


def test_trace_svg_has_colors(tmp_path):
    scene = write_scene(tmp_path, FLAT_UMBILIC_SCENE)
    out = tmp_path / "out"
    CliRunner().invoke(main, ["trace", scene, "--out", str(out), "--format", "svg"])
    svg = (out / "curves.svg").read_text()
    for color in ("#d62728", "#1f77b4", "#2ca02c"):  # LPL red, PC blue, MCNC green
        assert color in svg


def test_schema_violation_exit_2(tmp_path):
    bad = dict(FLAT_UMBILIC_SCENE)
    bad["patch"] = {"form": "spacelike", "degree": 3, "coefficients": []}
    scene = write_scene(tmp_path, bad)
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(tmp_path / "out")])
    assert r.exit_code == 2


def test_ambiguous_scenario_exit_3(tmp_path):
    a22, a30, a31 = 0.5, 0.4, 0.3
    a32 = (a31**2 - 6 * a22**2 * a30) / (3 * a30)
    scene = write_scene(tmp_path, {
        "version": 1,
        "patch": {"form": "lightcone", "degree": 3,
                  "coefficients": [[2, 2, a22], [3, 0, a30], [3, 1, a31], [3, 2, a32]]},
        "grid": 65,
    })
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(out)])
    assert r.exit_code == 3
    doc = json.loads((out / "analysis.json").read_text())  # report still emitted
    assert doc["ambiguous"]


def test_sweep_events_and_determinism(tmp_path):
    scene = write_scene(tmp_path, SWEEP_SCENE)
    outs = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        r = CliRunner().invoke(main, ["sweep", scene, "--out", str(out), "--grid", "65"])
        assert r.exit_code == 0, r.output
        outs.append((out / "events.json").read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    monitors = {e["monitor"] for e in doc["events"]}
    assert any("LD/MCNC" in m for m in monitors)


def test_sweep_json_traces_no_curves(tmp_path, monkeypatch):
    """Without SVG or CSV frames to write, the sweep traces no curves."""
    import minkfeat.family

    traced = []
    real_trace = minkfeat.family.trace
    monkeypatch.setattr(minkfeat.family, "trace",
                        lambda *a, **k: traced.append(1) or real_trace(*a, **k))
    scene = write_scene(tmp_path, SWEEP_SCENE)
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["sweep", scene, "--out", str(out), "--grid", "33",
                                  "--format", "json"])
    assert r.exit_code == 0, r.output
    assert traced == []
    assert not (out / "frames").exists()


def test_sweep_identity_family_zero_events(tmp_path):
    data = json.loads(json.dumps(SWEEP_SCENE))
    data["family"]["perturbation"] = [[1, 0, [0.0]]]
    scene = write_scene(tmp_path, data)
    out = tmp_path / "out"
    r = CliRunner().invoke(main, ["sweep", scene, "--out", str(out), "--grid", "65"])
    assert r.exit_code == 0, r.output
    doc = json.loads((out / "events.json").read_text())
    assert doc["events"] == []


def test_sweep_reversed_direction_same_events(tmp_path):
    scene = write_scene(tmp_path, SWEEP_SCENE)
    data = json.loads(json.dumps(SWEEP_SCENE))
    data["family"]["range"] = [0.003, -0.003]
    scene_rev = write_scene(tmp_path, data, "rev.json")
    ev = []
    for s, sub in ((scene, "a"), (scene_rev, "b")):
        out = tmp_path / sub
        r = CliRunner().invoke(main, ["sweep", s, "--out", str(out), "--grid", "65"])
        assert r.exit_code == 0, r.output
        doc = json.loads((out / "events.json").read_text())
        ev.append([(e["monitor"], e["before"], e["after"],
                    round(e["t_star"], 7)) for e in doc["events"]])
    assert ev[0] == ev[1]


SQUARED_LINE_SCENE = {
    "version": 1,
    "patch": {"form": "lightcone", "degree": 2, "coefficients": [[2, 2, 1.0]]},
    "domain": {"halfwidth": 0.25},
    "family": {"perturbation": [[2, 0, [1.0]]], "range": [-0.01, 0.01], "samples": 3},
}


@pytest.mark.parametrize("command,extra", [("trace", []), ("sweep", ["--format", "svg"])])
def test_identically_zero_field_exit_2(tmp_path, command, extra):
    """LPL, PC and MCNC of f = x + y^2 vanish identically: tracing them
    (the trace command, sweep frames at t = 0) is a scene error."""
    scene = write_scene(tmp_path, SQUARED_LINE_SCENE)
    r = CliRunner().invoke(main, [command, scene, "--out", str(tmp_path / "out"),
                                  "--grid", "17", *extra])
    assert r.exit_code == 2, r.output
    assert "scene error" in r.output and "LPL field is identically zero" in r.output


OVERFLOWING = [(key, value, command)
               for key, value, commands in [
                   ("domain", {"halfwidth": 1e60}, ("analyze", "trace", "sweep")),
                   ("domain", {"halfwidth": 1e90, "center": [1e100, 0]},
                    ("analyze", "trace", "sweep")),
                   ("family.range", [1e307, 1.5e308], ("sweep",)),
               ]
               for command in commands]


@pytest.mark.parametrize("key,value,command", OVERFLOWING,
                         ids=[f"{c}-{k}={v!r}"[:50] for k, v, c in OVERFLOWING])
def test_overflowing_field_grid_exit_2(tmp_path, key, value, command):
    """A finite window or family range on which the fields overflow to
    inf or NaN is a scene error naming the field, not a result computed
    from non-finite grids."""
    scene = write_scene(tmp_path, _with(SWEEP_SCENE, key, value))
    with np.errstate(over="ignore", invalid="ignore"):
        r = CliRunner().invoke(main, [command, scene, "--out", str(tmp_path / "out"),
                                      "--grid", "17"])
    assert r.exit_code == 2, r.output
    assert "scene error:" in r.output and "field is not finite on the window" in r.output


@pytest.mark.parametrize("command", ["analyze", "trace", "sweep"])
@pytest.mark.parametrize("grid", [0, 5, MAX_GRID + 1])
def test_grid_option_out_of_range_exit_2(tmp_path, command, grid):
    scene = write_scene(tmp_path, SWEEP_SCENE)
    r = CliRunner().invoke(main, [command, scene, "--out", str(tmp_path / "out"),
                                  "--grid", str(grid)])
    assert r.exit_code == 2
    assert "--grid" in r.output


@pytest.mark.parametrize("resolution", ["0", "-1e-4", "nan", "inf"])
def test_sweep_resolution_not_positive_finite_exit_2(tmp_path, resolution):
    scene = write_scene(tmp_path, SWEEP_SCENE)
    r = CliRunner().invoke(main, ["sweep", scene, "--out", str(tmp_path / "out"),
                                  "--resolution", resolution])
    assert r.exit_code == 2
    assert "resolution" in r.output


def test_strata_command():
    r = CliRunner().invoke(main, ["strata", "--", "-6", "8", "-3"])
    assert r.exit_code == 0
    assert "cuspidal-edge" in r.output
    r = CliRunner().invoke(main, ["strata", "--", "-2", "0", "1"])
    assert "self-intersection" in r.output


def test_strata_path_file(tmp_path):
    f = tmp_path / "pts.csv"
    f.write_text("-6, 8, -3\n0, 0, 1\n")
    r = CliRunner().invoke(main, ["strata", "--path", str(f), "--out", str(tmp_path)])
    assert r.exit_code == 0
    rows = json.loads((tmp_path / "strata.json").read_text())
    assert [row["stratum"] for row in rows] == ["cuspidal-edge", "open-0-roots"]


def test_scene_round_trip(tmp_path):
    scene = load_scene(write_scene(tmp_path, SWEEP_SCENE))
    data = scene_to_dict(scene)
    again = parse_scene(data)
    assert scene_to_dict(again) == data


def test_scene_rejects_bad_entries():
    with pytest.raises(SceneError):
        parse_scene({"version": 2})
    with pytest.raises(SceneError):
        parse_scene({"version": 1, "patch": {"form": "timelike", "degree": 3,
                                             "coefficients": [[1, 0, 1.0]]}})
    with pytest.raises(SceneError):
        parse_scene({"version": 1,
                     "patch": {"form": "timelike", "degree": 3, "coefficients": []},
                     "grid": 4})


def _with(data, key, value):
    """Deep copy of a scene with the dotted key set to value."""
    data = json.loads(json.dumps(data))
    *path, last = key.split(".")
    node = data
    for k in path:
        node = node[k]
    node[last] = value
    return data


BAD_SCENES = [
    ("domain", 5),
    ("domain", {"halfwidth": 0.1, "center": [0]}),
    ("domain", {"halfwidth": "a"}),
    ("domain", {"halfwidth": float("inf")}),
    ("domain", {"halfwidth": float("nan")}),
    ("domain", {"halfwidth": True}),
    ("domain", {"xmin": "0", "xmax": 1, "ymin": 0, "ymax": 1}),
    # finite numbers whose window or range overflows
    ("domain", {"halfwidth": 1e308}),
    ("domain", {"xmin": -1.7e308, "xmax": 1.7e308, "ymin": -0.1, "ymax": 0.1}),
    ("domain", {"halfwidth": 1, "center": [1.7e308, 0]}),
    ("family.range", [-1.7e308, 1.7e308]),
    ("family.range", 3),
    ("family.range", [float("nan"), 0.003]),
    ("family.range", [-0.003, float("-inf")]),
    ("family.range", [False, 0.003]),
    ("family.samples", MAX_SAMPLES + 1),
    ("family.samples", 10**7),
    ("family.samples", True),
    ("family.perturbation", [[1, 0, [float("nan")]]]),
    ("output", "svg"),
    ("output", {"colors": [1, 2]}),
    ("output", {"formats": "svg"}),
    ("patch.coefficients", [[2, 2, float("nan")]]),
    ("patch.coefficients", [[2, 2, float("inf")]]),
    ("patch.coefficients", [[2, 2, -float("inf")]]),
    ("patch.coefficients", [[2, 2, True]]),
    ("patch.coefficients", [[2, 2, 10**400]]),
    ("patch.coefficients", [[True, 0, 1.0]]),
    ("patch.degree", True),
    ("grid", MAX_GRID + 1),
    ("grid", 10**6),
    ("grid", True),
    ("version", True),
]


@pytest.mark.parametrize("key,value", BAD_SCENES,
                         ids=[f"{k}={v!r}"[:40] for k, v in BAD_SCENES])
def test_scene_schema_violation_exit_2(tmp_path, key, value):
    """Malformed scenes raise SceneError, and the CLI exits 2 with a
    message instead of a traceback."""
    data = _with(SWEEP_SCENE, key, value)
    with pytest.raises(SceneError):
        parse_scene(data)
    scene = write_scene(tmp_path, data)
    r = CliRunner().invoke(main, ["analyze", scene, "--out", str(tmp_path / "out")])
    assert r.exit_code == 2, r.output
    assert "scene error:" in r.output


def test_scene_size_limits_inclusive():
    scene = parse_scene(_with(_with(SWEEP_SCENE, "grid", MAX_GRID),
                              "family.samples", MAX_SAMPLES))
    assert scene.grid == MAX_GRID and scene.family.samples == MAX_SAMPLES
