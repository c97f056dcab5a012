"""Span recording around the public functions of the minkfeat modules.

``Tracer.install`` replaces each traced function or method with a wrapper
wherever the name is bound (the defining module, every module that
imported it with ``from .x import y``, and the package namespace), and
``uninstall`` puts the originals back.  A wrapper records one span: name,
start, end, parent span and operation id, plus one number the layer
metrics need (scalar-call flag, vertices or points returned, bytes
written, repeated-patch flag, events found).  Spans stay in memory in
flat arrays and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: modules whose public functions get spans.  minkowski is reached only
#: through patch, and oracle serves only the output checks.
LAYERS = ("jets", "patch", "tracer", "classify", "contact", "family", "export", "scene", "cli")

OP = "op"


def _is_scalar(x) -> bool:
    return not isinstance(x, np.ndarray) or x.ndim == 0


def _eval_scalar(args, kwargs, out):
    return 1.0 if _is_scalar(args[1]) and _is_scalar(args[2]) else 0.0


def _vertices(args, kwargs, out):
    return float(sum(len(pl) for pl in out.polylines) + len(out.isolated))


def _count(args, kwargs, out):
    return float(len(out))


def _events(args, kwargs, out):
    return float(len(out.events))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.value = array("d")
        self._stack = [-1]
        self.active = False
        self.op_id = -1
        self._seen_patches: set = set()
        self._undo: list = []

    # ---------------------------------------------------------- recording
    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid: int) -> int:
        idx = len(self.name)
        self.name.append(sid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float):
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def wrap(self, fn, name: str, value=None):
        sid = self._sid(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = rec._open(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec._close(idx, t0, perf_counter())
            if value is not None:
                rec.value[idx] = value(args, kwargs, out)
            return out

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under a root span."""
        self.op_id = op_id
        self._seen_patches = set()
        self.active = True
        idx = self._open(self._sid(OP))
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, t0, perf_counter())
            self.active = False

    def _repeat_patch(self, args, kwargs, out):
        bundle = args[0]
        key = (bundle.patch.form, bundle.patch.f.c.tobytes(), bundle.cross_sign)
        if key in self._seen_patches:
            return 1.0
        self._seen_patches.add(key)
        return 0.0

    # ------------------------------------------------------- installation
    def _targets(self):
        """(owner, attribute, span name, value hook) for every traced callable."""
        from minkfeat import cli, family, jets

        special = {
            ("patch", "feature_fields"): self._repeat_patch,
            ("tracer", "trace"): _vertices,
            ("tracer", "intersect"): _count,
            ("family", "sweep"): _events,
            ("family", "umbilic_points"): _count,
            ("export", "curves_to_csv"): _count,
            ("export", "curves_to_svg"): _count,
        }
        renamed = {"curves_to_csv": "csv", "curves_to_svg": "svg", "load_scene": "load"}
        out = []
        for layer in LAYERS:
            mod = sys.modules[f"minkfeat.{layer}"]
            names = list(getattr(mod, "__all__", []))
            if layer == "classify":
                names.append("series_along_graph")  # public in use, not in __all__
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    out.append((mod, attr, f"{layer}.{renamed.get(attr, attr)}",
                                special.get((layer, attr))))
        out += [
            (jets.Jet2, "__init__", "jets.new", None),
            (jets.Jet2, "eval", "jets.eval", _eval_scalar),
            (jets.Jet2, "compose", "jets.compose", None),
            (family.FamilySpec, "patch_at", "family.patch_at", None),
        ]
        out += [(cls, "measure", "family.measure", None)
                for cls in vars(family).values()
                if inspect.isclass(cls) and cls.__module__ == family.__name__
                and "measure" in vars(cls)]
        out += [(cmd, "callback", "cli.command", None) for cmd in cli.main.commands.values()]
        return out

    def install(self):
        swapped = {}
        for owner, attr, name, value in self._targets():
            orig = getattr(owner, attr) if not inspect.isclass(owner) else vars(owner)[attr]
            new = self.wrap(orig, name, value)
            self._undo.append((owner, attr, orig))
            setattr(owner, attr, new)
            if not inspect.isclass(owner) and inspect.ismodule(owner):
                swapped[id(orig)] = (orig, new)
        # rebind every other name that refers to a swapped module function
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "minkfeat" or mname.startswith("minkfeat.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = swapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------------- output
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path, meta: dict):
        import json

        np.savez_compressed(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                            **self.arrays())


def layer_metrics(tr: Tracer, untraced_s: float, traced_s: float) -> dict:
    """Per-layer counts and self times from the recorded spans."""
    a = tr.arrays()
    names = tr.names
    nn = len(names)
    dur = a["end"] - a["start"]
    par = a["parent"]
    has_par = par >= 0
    child = np.bincount(par[has_par], weights=dur[has_par], minlength=len(dur))
    self_s = dur - child
    calls = np.bincount(a["name"], minlength=nn)
    self_by = np.bincount(a["name"], weights=self_s, minlength=nn)
    value_by = np.bincount(a["name"], weights=a["value"], minlength=nn)
    pname = np.where(has_par, a["name"][np.where(has_par, par, 0)], -1)

    def sid(n):
        return tr._ids.get(n, -1)

    def n_calls(n):
        return int(calls[sid(n)]) if sid(n) >= 0 else 0

    def self_time(n):
        return float(self_by[sid(n)]) if sid(n) >= 0 else 0.0

    def total(n):
        return float(value_by[sid(n)]) if sid(n) >= 0 else 0.0

    def ratio(x, y):
        return x / y if y else 0.0

    is_eval = a["name"] == sid("jets.eval")
    scalar_eval = is_eval & (a["value"] > 0)

    def scalar_evals_in(n):
        return int(np.count_nonzero(scalar_eval & (pname == sid(n)))) if sid(n) >= 0 else 0

    is_op = a["name"] == sid(OP)
    op_time = float(dur[is_op].sum())
    covered = float(dur[has_par & (pname == sid(OP))].sum())

    m = {}
    m["jets.eval.calls"] = n_calls("jets.eval")
    m["jets.eval.scalar_calls"] = int(np.count_nonzero(scalar_eval))
    m["jets.eval.self_s"] = self_time("jets.eval")
    m["jets.new.count"] = n_calls("jets.new")
    m["jets.new.self_s"] = self_time("jets.new")
    for n in ("compose", "ift_series"):
        m[f"jets.{n}.calls"] = n_calls(f"jets.{n}")
        m[f"jets.{n}.self_s"] = self_time(f"jets.{n}")
    m["patch.feature_fields.calls"] = n_calls("patch.feature_fields")
    m["patch.feature_fields.self_s"] = self_time("patch.feature_fields")
    m["patch.feature_fields.repeat_ratio"] = ratio(total("patch.feature_fields"),
                                                   n_calls("patch.feature_fields"))
    m["tracer.trace.calls"] = n_calls("tracer.trace")
    m["tracer.trace.self_s"] = self_time("tracer.trace")
    m["tracer.trace.scalar_evals"] = scalar_evals_in("tracer.trace")
    m["tracer.trace.evals_per_vertex"] = ratio(m["tracer.trace.scalar_evals"],
                                               total("tracer.trace"))
    m["tracer.intersect.calls"] = n_calls("tracer.intersect")
    m["tracer.intersect.self_s"] = self_time("tracer.intersect")
    m["tracer.intersect.scalar_evals"] = scalar_evals_in("tracer.intersect")
    m["tracer.intersect.points"] = int(total("tracer.intersect"))
    m["tracer.intersect.evals_per_point"] = ratio(m["tracer.intersect.scalar_evals"],
                                                  m["tracer.intersect.points"])
    m["classify.detect_scenario.calls"] = n_calls("classify.detect_scenario")
    m["classify.detect_scenario.self_s"] = self_time("classify.detect_scenario")
    m["classify.classify_singularity.self_s"] = self_time("classify.classify_singularity")
    m["classify.series_along_graph.self_s"] = self_time("classify.series_along_graph")
    m["contact.contact_order.calls"] = n_calls("contact.contact_order")
    m["contact.contact_order.self_s"] = self_time("contact.contact_order")
    m["family.sweep.self_s"] = self_time("family.sweep")
    m["family.measure.calls"] = n_calls("family.measure")
    m["family.measure.per_event"] = ratio(m["family.measure.calls"], total("family.sweep"))
    m["family.patch_at.calls"] = n_calls("family.patch_at")
    m["family.umbilic_points.calls"] = n_calls("family.umbilic_points")
    m["family.umbilic_points.self_s"] = self_time("family.umbilic_points")
    m["export.csv.self_s"] = self_time("export.csv")
    m["export.svg.self_s"] = self_time("export.svg")
    m["export.bytes"] = int(total("export.csv") + total("export.svg"))
    m["scene.load.self_s"] = self_time("scene.load")
    m["cli.command.self_s"] = self_time("cli.command")
    m["trace.coverage"] = ratio(covered, op_time)
    m["trace.overhead"] = ratio(traced_s, untraced_s)
    return m

