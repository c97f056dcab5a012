"""Seeded inputs, operations and output checks of the benchmark workloads.

Every workload turns a seed into a pool of inputs (scene files for the
CLI workloads, patches for ``classify-strata``), runs one operation on
one input, and checks the operation's output against answers known by
construction.  Byte digests are left to the golden tests, so a later
correctness fix that moves output bytes is not counted as a failure
here.

The program is reached only through module attributes
(``cli.main``, ``classify.detect_scenario``, ...), so the traced run can
swap in wrapped functions without this module knowing.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import helpers
from minkfeat import classify, cli, contact, oracle, patch, tracer

PAIRS = cli.PAIRS
FIELD_KINDS = patch.FIELD_KINDS

#: the criterion-10 scene: a lightcone degree-4 patch with a lightlike
#: umbilic at the origin, deformed by t*x
CRITERION_10_COEFFS = [[2, 2, 0.6], [3, 0, 0.8], [3, 1, 0.3], [3, 2, -0.2], [3, 3, 0.4]]
SWEEP_RANGE = [-0.003, 0.003]
SWEEP_RESOLUTION = 1e-4  # the CLI default, stated so the checks can use it
#: trace window of trace-dense and analyze-generic
HALFWIDTH = 0.25

#: oracle.raw_field is certified to ~1e-6 relative to the field's size
ORACLE_RTOL = 1e-6
#: vertices and points re-checked with the oracle per op
ORACLE_SAMPLES = 6


@dataclass
class Item:
    """One input: what the op runs on and what its check needs."""

    key: str
    args: list = field(default_factory=list)   # CLI arguments (CLI workloads)
    patch: object = None                      # MongePatch the scene encodes
    expect: dict = field(default_factory=dict)


def _criterion_10():
    return patch.MongePatch.lightcone(4, [tuple(c) for c in CRITERION_10_COEFFS])


def _scene_doc(p, halfwidth, grid, formats=("json",), family=None) -> dict:
    coeffs = [[s, i, v] for s, i, v in p.f.to_triangular() if s >= 2 and v != 0.0]
    doc = {
        "version": 1,
        "patch": {"form": p.form, "degree": p.degree, "coefficients": coeffs},
        "domain": {"halfwidth": halfwidth},
        "grid": grid,
        "output": {"formats": list(formats)},
    }
    if family is not None:
        doc["family"] = family
    return doc


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _crossing_cells(S: np.ndarray) -> np.ndarray:
    return ((S[:-1, :-1] * S[1:, :-1] < 0) | (S[:-1, 1:] * S[1:, 1:] < 0)
            | (S[:-1, :-1] * S[:-1, 1:] < 0) | (S[1:, :-1] * S[1:, 1:] < 0))


def _draw(seed, n, tries, scale, count, target) -> list:
    """Of ``tries`` seeded random degree-4 patches, timelike and lightcone
    in turn, the n whose ``count`` of the field signs on a 65-grid is
    nearest ``target``, nearest first.  A fixed number of draws keeps the
    work of input generation, part of the set-up time, the same on every
    seed."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-HALFWIDTH, HALFWIDTH, 65)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    scored = []
    for k in range(tries):
        make = helpers.random_timelike if k % 2 == 0 else helpers.random_lightcone
        p = make(rng, scale=scale)
        ff = _fields(p)
        c = count({kind: np.sign(np.asarray(ff[kind](X, Y), float)) for kind in FIELD_KINDS})
        scored.append((abs(c - target), k, p))
    scored.sort(key=lambda t: t[:2])
    return [p for _, _, p in scored[:n]]


def _cli(args) -> int:
    """One CLI command in-process; its exit code is the op's result."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args, standalone_mode=False)
        except SystemExit as e:
            if e.code is None:
                return 0
            return e.code if isinstance(e.code, int) else 1
    return 0


def _fields(p):
    return patch.feature_fields(patch.fundamental_forms(p))


def _oracle_scale(ff, kind) -> float:
    """Size of a field on the window, for the oracle's relative tolerance."""
    xs = np.linspace(-HALFWIDTH, HALFWIDTH, 17)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return max(1.0, float(np.max(np.abs(ff[kind](X, Y)))))


def _oracle_problems(p, kind, pts, ff, what) -> list:
    raw = oracle.raw_field(p, kind)
    tol = ORACLE_RTOL * _oracle_scale(ff, kind)
    out = []
    for x, y in pts:
        v = raw(float(x), float(y))
        if not abs(v) <= tol:
            out.append(f"{what} {kind} at ({x:.6g}, {y:.6g}): oracle value {v:.3g} > {tol:.3g}")
    return out


def _sample(pts, k):
    if len(pts) <= k:
        return list(pts)
    idx = np.linspace(0, len(pts) - 1, k).round().astype(int)
    return [pts[i] for i in idx]


# ---------------------------------------------------------------- workloads
class Workload:
    name = ""
    #: ops of the traced run (fixed, so work counts repeat exactly)
    traced_ops = 1
    #: the timed loop runs whole cycles of this many consecutive inputs,
    #: so inputs built as a repeating mix enter every run in one proportion
    cycle = 1

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def inputs(self, seed: int, work: Path) -> list:
        raise NotImplementedError

    def run(self, item: Item, out: Path):
        raise NotImplementedError

    def check(self, item: Item, out: Path, result) -> list:
        """Problems found in the op's output; empty when it is correct."""
        raise NotImplementedError

    def check_group(self, done: dict) -> list:
        """Problems across ops (called with every checked op so far)."""
        return []


class SweepUmbilic(Workload):
    """CLI ``sweep --format json`` on the criterion-10 scene, alternating
    the forward and the reversed t-range."""

    name = "sweep-umbilic"
    traced_ops = 1
    cycle = 2

    def inputs(self, seed, work):
        # The scene is frozen: seeded lightlike-umbilic patches cost
        # 7.6-25 s per op and a 2% jitter of this one moved its event count
        # from 12 to 18-20, so with two ops per run either would swing the
        # throughput far past any bound.  Forward and reversed ranges give
        # two distinct scene files whose event lists must agree.
        grid = 16 if self.smoke else 17
        resolution = 5e-2 if self.smoke else SWEEP_RESOLUTION
        p = _criterion_10()
        items = []
        for tag, rng in (("fwd", SWEEP_RANGE), ("rev", SWEEP_RANGE[::-1])):
            fam = {"perturbation": [[1, 0, [1.0]]], "range": rng, "samples": 3}
            path = _write(work / f"sweep-{tag}.json", _scene_doc(p, 0.12, grid, family=fam))
            items.append(Item(f"sweep-{tag}", ["sweep", path, "--format", "json",
                                               "--resolution", repr(resolution)],
                              p, {"range": rng, "resolution": resolution}))
        return items

    def run(self, item, out):
        return _cli(item.args + ["--out", str(out)])

    def check(self, item, out, code):
        if code != 0:
            return [f"exit code {code}"]
        events = json.loads((out / "events.json").read_text(encoding="utf-8"))["events"]
        r0, r1 = item.expect["range"]
        limit = item.expect["resolution"] * abs(r1 - r0)
        probs = [f"event {e['monitor']} bracket {e['t_hi'] - e['t_lo']:.3g} > {limit:.3g}"
                 for e in events if not e["t_hi"] - e["t_lo"] <= limit]
        # the lightlike umbilic at t = 0 is the bifurcation the scene exists for
        if not any(min(abs(e["t_lo"]), abs(e["t_hi"])) <= limit for e in events):
            probs.append("no event brackets t = 0")
        item.expect["events"] = events
        return probs

    def check_group(self, done):
        fwd, rev = done.get("sweep-fwd"), done.get("sweep-rev")
        if fwd is None or rev is None:
            return []
        limit = fwd.expect["resolution"] * abs(SWEEP_RANGE[1] - SWEEP_RANGE[0])

        def key(e):
            return (e["monitor"], e["before"], e["after"])

        a = sorted(fwd.expect["events"], key=lambda e: (key(e), e["t_star"]))
        b = sorted(rev.expect["events"], key=lambda e: (key(e), e["t_star"]))
        if [key(e) for e in a] != [key(e) for e in b] or any(
                abs(x["t_star"] - y["t_star"]) > limit for x, y in zip(a, b)):
            return ["forward and reversed ranges give different events"]
        return []


class TraceDense(Workload):
    """CLI ``trace`` with CSV, SVG and JSON output at grid 257."""

    name = "trace-dense"
    traced_ops = 4
    POOL = 10
    #: of TRIES draws, the POOL nearest CELLS total sign-change cells of the
    #: four fields on a 65-grid (about 1 draw in 8 has 230-270).  Trace time
    #: grows with that count (1.2 s at 140 to 2.6 s at 290 on the seed code,
    #: about 2 ms per traced vertex), so a narrow spread keeps a run's mean
    #: op comparable across seeds.
    TRIES = 80
    CELLS = 250

    def inputs(self, seed, work):
        def cells(signs):
            return sum(int(_crossing_cells(S).sum()) for S in signs.values())

        n, tries = (2, 8) if self.smoke else (self.POOL, self.TRIES)
        grid = 33 if self.smoke else 257
        items = []
        for k, p in enumerate(_draw(seed, n, tries, 0.5, cells, self.CELLS)):
            path = _write(work / f"trace-{k}.json",
                          _scene_doc(p, HALFWIDTH, grid, ("csv", "svg", "json")))
            items.append(Item(f"trace-{k}", ["trace", path, "--format", "csv", "--format", "svg",
                                             "--format", "json"], p, {"grid": grid}))
        return items

    def run(self, item, out):
        return _cli(item.args + ["--out", str(out)])

    def check(self, item, out, code):
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads((out / "curves.json").read_text(encoding="utf-8"))
        with open(out / "curves.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        svg = (out / "curves.svg").read_text(encoding="utf-8")
        ff = _fields(item.patch)
        cell = 2 * HALFWIDTH / (item.expect["grid"] - 1)
        probs = []
        nverts = 0
        npoly = 0
        for kind in FIELD_KINDS:
            lines = [np.asarray(pl, float).reshape(-1, 2) for pl in doc[kind]["polylines"]]
            iso = np.asarray(doc[kind]["isolated"], float).reshape(-1, 2)
            npoly += len(lines)
            verts = np.vstack(lines) if lines else np.zeros((0, 2))
            nverts += len(verts) + len(iso)
            fld = ff[kind]
            if len(verts):
                # a vertex is an edge crossing bisected 30 times, or a
                # Gauss-Newton point below REFINE_TOL
                val = np.abs(np.asarray(fld(verts[:, 0], verts[:, 1]), float))
                gx = np.asarray(fld.jet.diff("x").eval(verts[:, 0], verts[:, 1]), float)
                gy = np.asarray(fld.jet.diff("y").eval(verts[:, 0], verts[:, 1]), float)
                tol = np.maximum(tracer.REFINE_TOL, 4.0 * np.hypot(gx, gy) * cell * 2.0**-30)
                bad = np.flatnonzero(~(val <= tol))
                probs += [f"{kind} vertex {verts[i].tolist()} value {val[i]:.3g}" for i in bad[:3]]
                probs += _oracle_problems(item.patch, kind, _sample(verts, ORACLE_SAMPLES),
                                          ff, "vertex")
            if len(iso):
                val = np.abs(np.asarray(fld(iso[:, 0], iso[:, 1]), float))
                probs += [f"{kind} isolated zero value {v:.3g}"
                          for v in val if not v < 10 * tracer.REFINE_TOL]
        if len(rows) != nverts:
            probs.append(f"CSV has {len(rows)} rows for {nverts} vertices")
        if svg.count("<polyline") != npoly:
            probs.append(f"SVG has {svg.count('<polyline')} polylines for {npoly}")
        return probs


class AnalyzeGeneric(Workload):
    """CLI ``analyze`` at grid 257 on patches whose curves cross: seeded
    scenes with transversal crossings, and the criterion-10 scene, with
    its tangential roots, closing every cycle."""

    name = "analyze-generic"
    traced_ops = 8
    POOL = 16
    cycle = 8
    #: of TRIES draws, the scenes nearest SHARED sign-change cells common to
    #: both fields of a pair, summed over the six pairs on a 65-grid (about
    #: 1 draw in 3 has 10-30).  Below 10 the curves rarely cross; near 20
    #: most roots have one seed cell.  Op time grows with that count (about
    #: 2.6 % a cell; 0.4-1.4 s over 4-33 cells on the seed code), so 96
    #: draws, whose 14 nearest lie within about 14-26, keep a run's scenes
    #: comparable across seeds.  Above 100 near-tangential pairs send
    #: dozens of seed cells to one root, but only 1 draw in 80 gets there
    #: and such ops took 2-5 s, so the tangential case is the frozen
    #: criterion-10 scene (a lightlike umbilic at the origin, about 4 s an
    #: op), the same on every seed.
    TRIES = 96
    SHARED = 20

    def __init__(self, smoke):
        super().__init__(smoke)
        if smoke:
            self.cycle = 2

    def inputs(self, seed, work):
        def shared(signs):
            C = {kind: _crossing_cells(S) for kind, S in signs.items()}
            return sum(int((C[a] & C[b]).sum()) for a, b in PAIRS)

        n, tries = (2, 4) if self.smoke else (self.POOL, self.TRIES)
        single = iter(_draw(seed, n - n // self.cycle, tries, 2.0, shared, self.SHARED))
        grid = 33 if self.smoke else 257
        c10 = _criterion_10()
        c10_path = _write(work / "analyze-c10.json", _scene_doc(c10, HALFWIDTH, grid))
        items = []
        for k in range(n):
            if k % self.cycle == self.cycle - 1:
                items.append(Item(f"analyze-{k}-c10", ["analyze", c10_path], c10,
                                  {"scenario": "LIGHTLIKE_UMBILIC"}))
                continue
            p = next(single)
            path = _write(work / f"analyze-{k}.json", _scene_doc(p, HALFWIDTH, grid))
            items.append(Item(f"analyze-{k}", ["analyze", path], p, {"scenario": "GENERIC"}))
        return items

    def run(self, item, out):
        return _cli(item.args + ["--out", str(out)])

    def check(self, item, out, code):
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
        ff = _fields(item.patch)
        h = HALFWIDTH
        probs = []
        if doc.get("scenario") != item.expect["scenario"]:
            probs.append(f"scenario {doc.get('scenario')}, expected {item.expect['scenario']}")
        by_kind: dict = {}
        for e in doc["intersections"]:
            a, b = e["pair"]
            x, y = e["point"]
            if not (abs(x) <= h * (1 + 1e-9) and abs(y) <= h * (1 + 1e-9)):
                probs.append(f"{a}/{b} point {e['point']} outside the window")
            for kind in (a, b):
                # intersect accepts a root when both fields are below REFINE_TOL
                v = abs(float(ff[kind](x, y)))
                if not v < tracer.REFINE_TOL:
                    probs.append(f"{a}/{b} point {e['point']}: {kind} value {v:.3g}")
                by_kind.setdefault(kind, []).append((x, y))
        for kind, pts in sorted(by_kind.items()):
            probs += _oracle_problems(item.patch, kind, _sample(pts, ORACLE_SAMPLES), ff,
                                      "intersection")
        A, B, C = patch.bde_jets(patch.fundamental_forms(item.patch))
        scale = max(1.0, max(float(np.max(np.abs(j.c))) for j in (A, B, C)))
        for x, y in doc["umbilics"]:
            r = max(abs(float(j.eval(x, y))) for j in (A, B, C))
            if not r < 1e-9 * scale:  # umbilic_points' default tolerance
                probs.append(f"umbilic ({x:.6g}, {y:.6g}) residual {r:.3g}")
        return probs


#: stratum constructors of tests/helpers.py, with the scenario each builds
#: and, where the contact doubling law applies, the (base, other, other2)
#: pairs whose orders must read (1, 2) generic and (2, 4) tuned
STRATA = [
    ("lpl_mcnc_point", helpers.lpl_mcnc_point_patch, "GENERIC",
     ("LPL", "MCNC", "PC", (1, 2))),
    ("lpl_mcnc_point-degenerate", lambda r: helpers.lpl_mcnc_point_patch(r, degenerate=True),
     "LPL_PC_MCNC_TANGENCY", ("LPL", "MCNC", "PC", (2, 4))),
    ("ld_lpl", helpers.ld_lpl_patch, "GENERIC", ("LD", "MCNC", "LPL", (1, 2))),
    ("ld_lpl-tuned", lambda r: helpers.ld_lpl_patch(r, tuned=True), "LD_LPL_HIGH_TANGENCY",
     ("LD", "MCNC", "LPL", (2, 4))),
    ("lightlike_umbilic", helpers.lightlike_umbilic_patch, "LIGHTLIKE_UMBILIC", None),
    ("flat_umbilic", helpers.flat_umbilic_patch, "FLAT_TIMELIKE_UMBILIC", None),
    ("non_morse_umbilic", helpers.non_morse_umbilic_patch, "LPL_NON_MORSE", None),
    ("mcnc_singular", helpers.mcnc_singular_patch, "MCNC_MORSE_SING", None),
]


class ClassifyStrata(Workload):
    """Library classification of patches built on each degeneracy stratum:
    detect_scenario, contact_order(cap=8) for each pair of fields vanishing
    at the origin, classify_singularity for each field singular there."""

    name = "classify-strata"
    traced_ops = 16
    POOL = 64
    cycle = len(STRATA)

    def inputs(self, seed, work):
        rng = np.random.default_rng(seed)
        n = len(STRATA) if self.smoke else self.POOL
        items = []
        for k in range(n):
            label, make, scenario, law = STRATA[k % len(STRATA)]
            items.append(Item(f"{label}-{k}", patch=make(rng),
                              expect={"scenario": scenario, "law": law}))
        return items

    def run(self, item, out):
        p = item.patch
        report = classify.detect_scenario(p)
        ff = _fields(p)
        tol = contact.SERIES_ZERO_RTOL
        vanish, regular = {}, {}
        for kind in FIELD_KINDS:
            c = ff[kind].jet.c
            scale = max(1.0, float(np.max(np.abs(c))))
            vanish[kind] = abs(c[0, 0]) <= tol * scale
            regular[kind] = math.hypot(c[1, 0], c[0, 1]) > tol * scale
        orders = {}
        for a, b in PAIRS:
            if not (vanish[a] and vanish[b]):
                continue
            if not regular[a]:
                if not regular[b]:
                    continue
                a, b = b, a
            orders[(a, b)] = contact.contact_order(ff[a], ff[b], cap=8).order
        labels = {kind: classify.classify_singularity(ff[kind]).label
                  for kind in FIELD_KINDS if vanish[kind] and not regular[kind]}
        return report.scenario, orders, labels

    def check(self, item, out, result):
        scenario, orders, labels = result
        probs = []
        if scenario != item.expect["scenario"]:
            probs.append(f"scenario {scenario}, built as {item.expect['scenario']}")
        law = item.expect["law"]
        if law is not None:
            base, o1, o2, want = law
            got = (orders.get((base, o1)), orders.get((base, o2)))
            if got != want:
                probs.append(f"contact orders {base}/{o1}, {base}/{o2} = {got}, expected {want}")
        if any(v == "regular" for v in labels.values()):
            probs.append(f"singular fields classified regular: {labels}")
        return probs


WORKLOADS = {w.name: w for w in (SweepUmbilic, TraceDense, AnalyzeGeneric, ClassifyStrata)}
