"""Command-line front end: scene files in, reports and plots out.

Exit codes: 0 success, 2 scene schema violation, an identically zero
field to trace, a field grid that overflows on the window or an option
out of range, 3 ambiguous scenario (the report is still written), 4
sweep event bracket failure.
"""
from __future__ import annotations

import json
import pathlib
import sys

import click

from .classify import (
    AmbiguousScenario,
    classify_point,
    detect_scenario,
    lambda_invariants,
)
from .contact import SingularBaseCurve, contact_order
from .export import curves_to_csv, curves_to_svg
from .family import (
    EventBracketError,
    IntersectionMonitor,
    UmbilicCountMonitor,
    sweep as run_sweep,
    swallowtail_stratum,
    umbilic_points,
)
from .patch import FIELD_KINDS, feature_fields, fundamental_forms
from .scene import MAX_GRID, SceneError, load_scene
from .tracer import intersect, trace

#: the scene schema's bounds on ``grid``, for the ``--grid`` override
_GRID = click.IntRange(16, MAX_GRID)
PAIRS = [("LD", "LPL"), ("LD", "PC"), ("LD", "MCNC"),
         ("LPL", "PC"), ("LPL", "MCNC"), ("PC", "MCNC")]


def _dump_json(obj, path: pathlib.Path):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _fail(message, code=2):
    click.echo(message, err=True)
    sys.exit(code)


def _load(scene_path):
    try:
        return load_scene(scene_path)
    except SceneError as e:
        _fail(f"scene error: {e}")


@click.group()
def main():
    """Feature curves of surfaces in Minkowski 3-space."""


@main.command()
@click.argument("scene_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".",
              help="output directory")
@click.option("--grid", "grid", type=_GRID, default=None, help="override grid size")
def analyze(scene_path, out_dir, grid):
    """Classify the scene's base point and report scenario, invariants
    and contact orders at every pairwise curve intersection."""
    scene = _load(scene_path)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = grid or scene.grid
    bundle = fundamental_forms(scene.patch)  # held: every stage below shares its jets

    ambiguous = False
    try:
        report = detect_scenario(scene.patch, family=scene.family)
    except AmbiguousScenario as e:
        report = e.report
        ambiguous = True

    ff = feature_fields(bundle)
    contacts = []
    try:
        for a, b in PAIRS:
            for pt in intersect(ff[a], ff[b], scene.domain, n):
                entry = {
                    "pair": [a, b],
                    "point": [float(pt.position[0]), float(pt.position[1])],
                    "transversal": pt.transversal,
                }
                try:
                    entry["order"] = contact_order(ff[a], ff[b], pt.position).order
                except (SingularBaseCurve, ValueError):
                    entry["order"] = None
                contacts.append(entry)
        umbilics = umbilic_points(scene.patch, scene.domain)
    except ValueError as e:  # a field grid that overflows on the window
        _fail(f"scene error: {e}")
    contacts.sort(key=lambda e: (e["pair"], e["point"]))

    doc = report.to_jsonable()
    doc["intersections"] = contacts
    doc["umbilics"] = [[float(x), float(y)] for x, y in umbilics]
    _dump_json(doc, out / "analysis.json")
    click.echo(f"scenario: {doc['scenario']}")
    if ambiguous:
        _fail(f"ambiguous quantities: {doc['ambiguous']}", 3)


@main.command("trace")
@click.argument("scene_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
@click.option("--grid", "grid", type=_GRID, default=None)
@click.option("--format", "formats", multiple=True,
              type=click.Choice(["csv", "svg", "json"]))
def trace_cmd(scene_path, out_dir, grid, formats):
    """Trace the four feature curves and export CSV/SVG."""
    scene = _load(scene_path)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = grid or scene.grid
    fmts = formats or scene.formats
    ff = feature_fields(fundamental_forms(scene.patch))
    try:
        curves = [trace(ff[k], scene.domain, n) for k in FIELD_KINDS]
    except ValueError as e:  # a field that vanishes identically or overflows on the window
        _fail(f"scene error: {e}")
    if "csv" in fmts:
        (out / "curves.csv").write_text(curves_to_csv(curves), encoding="utf-8")
    if "svg" in fmts:
        (out / "curves.svg").write_text(
            curves_to_svg(curves, scene.colors, title="feature curves"),
            encoding="utf-8",
        )
    if "json" in fmts:
        doc = {
            tc.kind: {
                "polylines": [pl.tolist() for pl in tc.polylines],
                "isolated": tc.isolated.tolist(),
            }
            for tc in curves
        }
        _dump_json(doc, out / "curves.json")
    click.echo(
        "traced: "
        + ", ".join(f"{tc.kind}:{len(tc.polylines)}p/{len(tc.isolated)}i" for tc in curves)
    )


@main.command("sweep")
@click.argument("scene_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=".")
@click.option("--grid", "grid", type=_GRID, default=None)
@click.option("--format", "formats", multiple=True,
              type=click.Choice(["csv", "svg", "json"]))
@click.option("--resolution", type=click.FloatRange(0, min_open=True), default=1e-4,
              help="event localization width relative to the sweep range")
def sweep_cmd(scene_path, out_dir, grid, formats, resolution):
    """Sweep the scene's family, writing per-t frames and an event list."""
    scene = _load(scene_path)
    if scene.family is None:
        _fail("scene error: sweep requires a family section")
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = grid or min(scene.grid, 129)
    fmts = formats or scene.formats
    frames_wanted = "svg" in fmts or "csv" in fmts
    monitors = [IntersectionMonitor(a, b) for a, b in PAIRS] + [UmbilicCountMonitor()]
    try:
        # curves are traced per sample only for the frames that get written
        result = run_sweep(scene.family, monitors, scene.domain, n, resolution=resolution,
                           keep_curves=FIELD_KINDS if frames_wanted else ())
    except EventBracketError as e:
        _fail(f"sweep error: {e}", 4)
    except ValueError as e:  # a field that vanishes identically or overflows, a bad resolution
        _fail(f"scene error: {e}")

    events = [e.to_jsonable() for e in result.events]
    _dump_json({"events": events, "snapshots": result.snapshots},
               out / "events.json")
    if frames_wanted:
        frames = out / "frames"
        frames.mkdir(exist_ok=True)
        for idx, (t, per_kind) in enumerate(zip(result.ts, result.curves)):
            curves = [per_kind[k] for k in FIELD_KINDS]
            notes = [f"t = {t:+.6f}"]
            notes += [
                f"{e['monitor']}: {e['before']} -> {e['after']} at t* = {e['t_star']:.2e}"
                for e in events
                if min(abs(t - e["t_lo"]), abs(t - e["t_hi"])) < abs(result.ts[1] - result.ts[0])
            ]
            if "svg" in fmts:
                (frames / f"frame_{idx:03d}.svg").write_text(
                    curves_to_svg(curves, scene.colors, title=f"t = {t:+.6f}",
                                  annotations=notes[1:]),
                    encoding="utf-8",
                )
            if "csv" in fmts:
                (frames / f"frame_{idx:03d}.csv").write_text(
                    curves_to_csv(curves), encoding="utf-8"
                )
    click.echo(f"events: {len(events)}")
    for e in events:
        click.echo(f"  {e['monitor']}: {e['before']} -> {e['after']} at t* = {e['t_star']:.3e}")


@main.command("strata")
@click.argument("uvw", nargs=-1, type=float)
@click.option("--path", "path_file", type=click.Path(exists=True, dir_okay=False),
              help="CSV/JSON file of u,v,w triples to classify")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None)
def strata_cmd(uvw, path_file, out_dir):
    """Classify points against the swallowtail discriminant strata."""
    triples = []
    if path_file:
        text = pathlib.Path(path_file).read_text(encoding="utf-8")
        if path_file.endswith(".json"):
            triples = [tuple(map(float, row)) for row in json.loads(text)]
        else:
            for line in text.strip().splitlines():
                if line.strip() and not line.lstrip().startswith("#"):
                    parts = line.replace(",", " ").split()
                    triples.append(tuple(float(p) for p in parts[:3]))
    elif len(uvw) == 3:
        triples = [tuple(uvw)]
    else:
        _fail("usage: strata <u> <v> <w>  or  strata --path <file>")

    rows = []
    for u, v, w in triples:
        pt = swallowtail_stratum(u, v, w)
        rows.append({
            "u": u, "v": v, "w": w,
            "stratum": pt.stratum,
            "roots": [[r, m] for r, m in pt.roots],
            "confident": pt.confident,
        })
        click.echo(f"({u:g}, {v:g}, {w:g}) -> {pt.stratum}"
                   + ("" if pt.confident else " (low confidence)"))
    if out_dir:
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _dump_json(rows, out / "strata.json")


if __name__ == "__main__":
    main()
