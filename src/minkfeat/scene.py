"""Scene files: the JSON input format of the command-line tools.

A scene bundles a patch (form, degree, triangular coefficients), the
trace window, optionally a 1-parameter family, and output options.
Schema violations raise SceneError with a message naming the offending
key; tolerances that affect classification are echoed into every report
for reproducibility.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .patch import LIGHTCONE_FORM, TIMELIKE_FORM, MongePatch
from .family import FamilySpec

__all__ = ["Scene", "SceneError", "load_scene", "parse_scene", "scene_to_dict",
           "MAX_GRID", "MAX_SAMPLES"]

SCHEMA_VERSION = 1
#: largest accepted ``grid``: a trace holds a few grid-sized float arrays,
#: about 34 MB each at this size
MAX_GRID = 2049
#: largest accepted ``family.samples``
MAX_SAMPLES = 10001

#: curve colors from the figure conventions: LD black, LPL red, PC blue,
#: MCNC green
DEFAULT_COLORS = {"LD": "#000000", "LPL": "#d62728", "PC": "#1f77b4", "MCNC": "#2ca02c"}


class SceneError(ValueError):
    """Scene file violates the schema."""


@dataclass
class Scene:
    patch: MongePatch
    domain: tuple = ((-0.25, 0.25), (-0.25, 0.25))
    grid: int = 257
    family: FamilySpec | None = None
    colors: dict = field(default_factory=lambda: dict(DEFAULT_COLORS))
    formats: tuple = ("json",)


def _require(cond, msg):
    if not cond:
        raise SceneError(msg)


def _number(v, what) -> float:
    """A finite JSON number (booleans, NaN and infinities rejected)."""
    x = float("nan")
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:
            pass
    _require(math.isfinite(x), f"{what} must be a finite number, got {v!r}")
    return x


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _integer(v, what, lo, hi) -> int:
    _require(_is_int(v) and lo <= v <= hi, f"{what} must be an integer in {lo}..{hi}, got {v!r}")
    return v


def _index(item, degree, what):
    s, i = item[0], item[1]
    _require(_is_int(s) and _is_int(i) and 0 <= i <= s <= degree,
             f"bad {what} index ({s!r},{i!r})")
    return s, i


def parse_scene(data: dict) -> Scene:
    _require(isinstance(data, dict), "scene must be a JSON object")
    version = data.get("version")
    _require(_is_int(version) and version == SCHEMA_VERSION,
             f"version must be {SCHEMA_VERSION}")
    # sizes first: nothing below allocates, but a scene asking for a
    # huge grid or sample count is refused before any work starts
    grid = _integer(data.get("grid", 257), "grid", 16, MAX_GRID)
    pd = data.get("patch")
    _require(isinstance(pd, dict), "missing patch object")
    form = pd.get("form")
    _require(form in (TIMELIKE_FORM, LIGHTCONE_FORM),
             f"patch.form must be '{TIMELIKE_FORM}' or '{LIGHTCONE_FORM}'")
    degree = _integer(pd.get("degree"), "patch.degree", 2, 8)
    coeffs = pd.get("coefficients")
    _require(isinstance(coeffs, list), "patch.coefficients must be a list of [s,i,value]")
    triples = []
    for item in coeffs:
        _require(isinstance(item, (list, tuple)) and len(item) == 3,
                 f"bad coefficient entry {item!r}")
        s, i = _index(item, degree, "coefficient")
        triples.append((s, i, _number(item[2], f"coefficient ({s},{i})")))
    # the linear normalization is implied by the form tag
    low = [t for t in triples if t[0] < 2]
    _require(not low, "coefficients must have s >= 2; the 1-jet is fixed by the form")
    try:
        if form == TIMELIKE_FORM:
            patch = MongePatch.timelike(degree, triples)
        else:
            patch = MongePatch.lightcone(degree, triples)
    except ValueError as e:
        raise SceneError(str(e)) from e

    dom = data.get("domain", {"halfwidth": 0.25})
    _require(isinstance(dom, dict), "domain must be an object")
    if "halfwidth" in dom:
        h = _number(dom["halfwidth"], "domain.halfwidth")
        _require(h > 0, "domain.halfwidth must be positive")
        center = dom.get("center", [0.0, 0.0])
        _require(isinstance(center, list) and len(center) == 2,
                 "domain.center must be a list [x, y]")
        cx, cy = (_number(c, "domain.center") for c in center)
        domain = ((cx - h, cx + h), (cy - h, cy + h))
    else:
        _require(all(k in dom for k in ("xmin", "xmax", "ymin", "ymax")),
                 "domain needs halfwidth or xmin/xmax/ymin/ymax")
        domain = ((_number(dom["xmin"], "domain.xmin"), _number(dom["xmax"], "domain.xmax")),
                  (_number(dom["ymin"], "domain.ymin"), _number(dom["ymax"], "domain.ymax")))
    # finite numbers can still add up to an infinite or empty window
    for axis, (lo, hi) in zip("xy", domain):
        _require(math.isfinite(hi - lo) and lo < hi,
                 f"domain {axis}-range [{lo!r}, {hi!r}] must be a nonempty finite interval")

    family = None
    if "family" in data:
        fd = data["family"]
        _require(isinstance(fd, dict), "family must be an object")
        samples = _integer(fd.get("samples", 41), "family.samples", 3, MAX_SAMPLES)
        pert_list = fd.get("perturbation")
        _require(isinstance(pert_list, list) and pert_list,
                 "family.perturbation must be a nonempty list of [s,i,[t-coeffs]]")
        pert = {}
        for item in pert_list:
            _require(isinstance(item, (list, tuple)) and len(item) == 3,
                     f"bad perturbation entry {item!r}")
            s, i = _index(item, degree, "perturbation")
            tc = item[2]
            _require(isinstance(tc, (list, tuple)),
                     f"perturbation t-coefficients must be numbers: {tc!r}")
            pert[(s, i)] = tuple(_number(c, "perturbation t-coefficient") for c in tc)
        rng = fd.get("range", [-0.01, 0.01])
        _require(isinstance(rng, list) and len(rng) == 2,
                 "family.range must be two distinct endpoints")
        rng = tuple(_number(t, "family.range endpoint") for t in rng)
        _require(rng[0] != rng[1], "family.range must be two distinct endpoints")
        _require(math.isfinite(rng[1] - rng[0]), "family.range must have a finite width")
        family = FamilySpec(patch, pert, rng, samples)

    out = data.get("output", {})
    _require(isinstance(out, dict), "output must be an object")
    user_colors = out.get("colors", {})
    _require(isinstance(user_colors, dict)
             and all(isinstance(v, str) for v in user_colors.values()),
             "output.colors must map curve names to color strings")
    colors = dict(DEFAULT_COLORS)
    colors.update(user_colors)
    formats = out.get("formats", ["json"])
    _require(isinstance(formats, list) and all(f in ("json", "csv", "svg") for f in formats),
             "output.formats entries must be json|csv|svg")
    return Scene(patch, domain, grid, family, colors, tuple(formats))


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SceneError(f"invalid JSON: {e}") from e
    return parse_scene(data)


def scene_to_dict(scene: Scene) -> dict:
    """Inverse of parse_scene on valid scenes (round-trip identity)."""
    patch = scene.patch
    coeffs = [
        [s, i, v]
        for s, i, v in patch.f.to_triangular()
        if s >= 2 and v != 0.0
    ]
    (x0, x1), (y0, y1) = scene.domain
    data = {
        "version": SCHEMA_VERSION,
        "patch": {"form": patch.form, "degree": patch.degree, "coefficients": coeffs},
        "domain": {"xmin": x0, "xmax": x1, "ymin": y0, "ymax": y1},
        "grid": scene.grid,
        "output": {"colors": scene.colors, "formats": list(scene.formats)},
    }
    if scene.family is not None:
        data["family"] = {
            "perturbation": [[s, i, list(tc)] for (s, i), tc in
                             sorted(scene.family.perturbation.items())],
            "range": list(scene.family.t_range),
            "samples": scene.family.samples,
        }
    return data
