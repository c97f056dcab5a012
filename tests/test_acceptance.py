"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
full module is expected to run in well under five minutes.
"""
import json

import numpy as np

from minkfeat import (
    FamilySpec,
    MongePatch,
    classify_singularity,
    feature_fields,
    fundamental_forms,
    lambda_invariants,
    null_chart_a3,
)
from minkfeat.contact import contact_order
from minkfeat.family import (
    IntersectionMonitor,
    UmbilicOnCurveMonitor,
    swallowtail_phi,
    swallowtail_stratum,
    sweep,
    umbilic_tracker,
)
from minkfeat.jets import Jet2, resultant_quartic_cubic
from minkfeat.oracle import fd_gradient, fd_hessian, grid_zero_census, numeric_contact, raw_field
from minkfeat.patch import FeatureField
from minkfeat.tracer import intersect, trace

from helpers import (
    ld_lpl_patch,
    lightlike_umbilic_patch,
    lpl_mcnc_point_patch,
    non_morse_umbilic_patch,
)


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_01_formula_fidelity():
    """j2 of the degeneracy field and 1-jets of the curvature fields at
    500 random lightlike umbilics, coefficientwise to 1e-12."""
    rng = np.random.default_rng(101)
    for _ in range(500):
        a22, a30, a31, a32, a33 = rng.normal(size=5)
        p = MongePatch.lightcone(
            3, [(2, 2, a22), (3, 0, a30), (3, 1, a31), (3, 2, a32), (3, 3, a33)]
        )
        ff = feature_fields(fundamental_forms(p))
        d, K, H = ff["LD"].jet, ff["PC"].jet, ff["MCNC"].jet
        assert abs(d.coeff(2, 0) - 6 * a30) < 1e-12
        assert abs(d.coeff(1, 1) - 4 * a31) < 1e-12
        assert abs(d.coeff(0, 2) - (4 * a22**2 + 2 * a32)) < 1e-12
        assert max(abs(d.coeff(0, 0)), abs(d.coeff(1, 0)), abs(d.coeff(0, 1))) < 1e-12
        assert abs(K.coeff(1, 0) - 4 * a22 * 3 * a30) < 1e-12
        assert abs(K.coeff(0, 1) - 4 * a22 * a31) < 1e-12
        assert abs(K.coeff(0, 0)) < 1e-12
        assert abs(H.coeff(1, 0) - 2 * 3 * a30) < 1e-12
        assert abs(H.coeff(0, 1) - 2 * a31) < 1e-12
        assert abs(H.coeff(0, 0)) < 1e-12
    report(1, "formula fidelity")


def test_criterion_02_a3_coefficients():
    """Reduced quartic coefficients against the closed forms, relative
    1e-6, on 100 random instances of each degenerate scenario."""
    rng = np.random.default_rng(102)
    for _ in range(100):
        p = lightlike_umbilic_patch(rng)
        lv = lambda_invariants(p).values
        target = -32.0 * lv["Lambda13"] ** 3 / (27.0 * p.a(3, 0) ** 3)
        r = classify_singularity(feature_fields(fundamental_forms(p))["LPL"])
        assert r.label in ("A3_minus", "A3_plus")
        assert abs(r.quartic_coeff - target) <= 1e-6 * abs(target)
    done = 0
    while done < 100:
        a10 = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        b10 = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        a11 = rng.normal() * 0.7
        l = Jet2.from_triangular(2, [(1, 0, a10), (1, 1, a11), (2, 0, rng.normal()),
                                     (2, 1, rng.normal()), (2, 2, rng.normal())])
        nn = Jet2.from_triangular(2, [(1, 0, b10), (1, 1, a11 * b10 / a10),
                                      (2, 0, rng.normal()), (2, 1, rng.normal()),
                                      (2, 2, rng.normal())])
        out = null_chart_a3(l, nn)
        if abs(out["Lambda9"]) < 1e-2:
            continue
        done += 1
        assert abs(out["quartic"] - out["quartic_closed"]) <= 1e-6 * abs(
            out["quartic_closed"]
        )
    report(2, "A3 coefficient match")


def test_criterion_03_triple_point_and_doubling():
    """200 random constructed intersection points: the curvature field
    vanishes there, and contact orders follow the doubling law with
    (2,1) generic and (4,2) under the tuned transversality invariant."""
    rng = np.random.default_rng(103)
    for k in range(200):
        degen = k % 2 == 1
        p = lpl_mcnc_point_patch(rng, degenerate=degen)
        ff = feature_fields(fundamental_forms(p))
        K0 = float(ff["PC"].jet.eval(0.0, 0.0))
        scale = max(1.0, np.linalg.norm(ff["PC"].jet.gradient_at(0.0, 0.0)))
        assert abs(K0) < 1e-8 * scale
        m_pc = contact_order(ff["LPL"], ff["PC"], cap=8).order
        m_mcnc = contact_order(ff["LPL"], ff["MCNC"], cap=8).order
        assert m_pc == 2 * m_mcnc
        L1 = lambda_invariants(p).values["Lambda1"]
        if degen:
            assert abs(L1) < 1e-9
            assert (m_mcnc, m_pc) == (2, 4)
        else:
            assert (m_mcnc, m_pc) == (1, 2)
    report(3, "triple point and contact doubling")


def test_criterion_04_ld_doubling():
    """200 random on-degeneracy tangency configurations: orders (2,1)
    generic, (4,2) at the tuned cubic coefficient, and the first order
    always even."""
    rng = np.random.default_rng(104)
    for k in range(200):
        tuned = k % 2 == 1
        p = ld_lpl_patch(rng, tuned=tuned, a21=1.0)
        ff = feature_fields(fundamental_forms(p))
        m_lpl = contact_order(ff["LD"], ff["LPL"], cap=8).order
        m_mcnc = contact_order(ff["LD"], ff["MCNC"], cap=8).order
        assert m_lpl % 2 == 0
        assert m_lpl == 2 * m_mcnc
        if tuned:
            assert abs(p.a(3, 0) + 1.0 / 3.0) < 1e-12
            assert (m_lpl, m_mcnc) == (4, 2)
        else:
            assert (m_lpl, m_mcnc) == (2, 1)
    report(4, "degeneracy-locus doubling")


def _raw_joint(patch, kind_a, kind_b):
    ra = raw_field(patch, kind_a)
    rb = raw_field(patch, kind_b)
    return lambda x, y: max(abs(ra(x, y)), abs(rb(x, y)))


def _grid_min(f, domain, n=49):
    (x0, x1), (y0, y1) = domain
    return min(f(x, y) for x in np.linspace(x0, x1, n) for y in np.linspace(y0, y1, n))


def _verify_intersections(patch, kind_a, kind_b, points, domain):
    """Independent confirmation of a claimed intersection set: each point
    carries a census component of the joint field in a local box, and if
    the set is empty the joint field stays far above the zero floor that
    actual intersections reach."""
    joint = _raw_joint(patch, kind_a, kind_b)
    if len(points) == 0:
        assert _grid_min(joint, domain) > 1e-4
        return
    for p in points:
        assert joint(p[0], p[1]) < 1e-6
        box = ((p[0] - 0.02, p[0] + 0.02), (p[1] - 0.02, p[1] + 0.02))
        comps, _ = grid_zero_census(joint, box, 33)
        assert comps >= 1


def test_criterion_05_sweep_counts():
    """The three family sweeps reproduce their intersection-count
    transitions with event localization |t*| < 1e-4 of the range, each
    verified independently by the grid census."""
    rng = np.random.default_rng(105)

    # tangent coincidence/mean-curvature pair: 2 <-> 0
    base = lpl_mcnc_point_patch(rng, degenerate=True)
    mon = IntersectionMonitor("LPL", "MCNC")
    spec = FamilySpec(base, {(2, 2): (1.0,)}, t_range=(-0.002, 0.002), samples=6)
    dom = ((-0.12, 0.12), (-0.12, 0.12))
    res = sweep(spec, [mon], domain=dom, n=97)
    counts = [s[mon.name] for s in res.snapshots]
    assert {counts[0], counts[-1]} == {0, 2}
    assert res.events
    for e in res.events:
        assert abs(e.t_star) < 1e-4 * 0.004 and e.width <= 1e-4 * 0.004
    for t in (-0.002, 0.002):
        patch_t = spec.patch_at(t)
        ff_t = feature_fields(fundamental_forms(patch_t))
        pts = intersect(ff_t["LPL"], ff_t["MCNC"], dom, 97)
        assert len(pts) == (counts[0] if t < 0 else counts[-1])
        _verify_intersections(patch_t, "LPL", "MCNC", [q.position for q in pts], dom)

    # flat umbilic with nonzero family invariant: two intersections for
    # every t != 0, the event is the curve sliding through the umbilic
    base = MongePatch.timelike(3, [(3, 0, 1.0), (3, 1, 0.3), (3, 2, -0.5), (3, 3, 0.2)])
    spec = FamilySpec(base, {(2, 0): (1.0,)}, t_range=(-0.001, 0.001), samples=6)
    lv = lambda_invariants(base, family=spec)
    assert abs(lv.values["Lambda8"]) > 1e-9
    side = UmbilicOnCurveMonitor("MCNC")
    dom = ((-0.05, 0.05), (-0.05, 0.05))
    res = sweep(spec, [IntersectionMonitor("LPL", "MCNC"), side], domain=dom, n=97)
    counts = [s["intersections:LPL/MCNC"] for s in res.snapshots]
    assert all(c == 2 for c in counts)
    ev = [e for e in res.events if e.monitor == side.name]
    assert len(ev) == 1 and abs(ev[0].t_star) < 1e-4 * 0.002
    for t in (-0.001, 0.001):
        patch_t = spec.patch_at(t)
        ff_t = feature_fields(fundamental_forms(patch_t))
        pts = intersect(ff_t["LPL"], ff_t["MCNC"], dom, 97)
        assert len(pts) == 2
        _verify_intersections(patch_t, "LPL", "MCNC", [q.position for q in pts], dom)

    # lightlike umbilic family: degeneracy locus against the
    # mean-curvature curve, 2 <-> 0 by the sign rule
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.002, 0.002), samples=6)
    lv = lambda_invariants(base, family=spec)
    mon = IntersectionMonitor("LD", "MCNC")
    dom = ((-0.1, 0.1), (-0.1, 0.1))
    res = sweep(spec, [mon], domain=dom, n=97)
    counts = [s[mon.name] for s in res.snapshots]
    assert {counts[0], counts[-1]} == {0, 2}
    gate = base.a(3, 0) * 1.0 * lv.values["Lambda13"]
    assert (counts[0] == 2) == (gate > 0)  # 2 points where the rule is negative
    for e in res.events:
        assert abs(e.t_star) < 1e-4 * 0.004 and e.width <= 1e-4 * 0.004
    for t in (-0.002, 0.002):
        patch_t = spec.patch_at(t)
        ff_t = feature_fields(fundamental_forms(patch_t))
        pts = intersect(ff_t["LD"], ff_t["MCNC"], dom, 97)
        assert len(pts) == (counts[0] if t < 0 else counts[-1])
        _verify_intersections(patch_t, "LD", "MCNC", [q.position for q in pts], dom)
    report(5, "sweep count transitions")


def test_criterion_06_umbilic_births():
    """The degenerate-umbilic sweep produces counts {0, 1, 2} over
    {t<0, t=0, t>0} or mirrored, and flipping the deformation mirrors
    the sides."""
    rng = np.random.default_rng(106)
    base = non_morse_umbilic_patch(rng)
    dom = ((-0.05, 0.05), (-0.05, 0.05))
    counts, mirror = [], []
    for sign, sink in ((1.0, counts), (-1.0, mirror)):
        spec = FamilySpec(base, {(2, 1): (sign,)}, t_range=(-0.0004, 0.0004), samples=5)
        sink.extend(len(e["umbilics"]) for e in umbilic_tracker(spec, dom))
    assert counts[2] == 1 and mirror[2] == 1
    assert sorted({counts[0], counts[-1]}) == [0, 2]
    assert mirror[0] == counts[-1] and mirror[-1] == counts[0]
    report(6, "umbilic births")


def test_criterion_07_swallowtail():
    rng = np.random.default_rng(107)
    for _ in range(1000):
        u, y = rng.uniform(-1, 1, 2)
        closed, _ = resultant_quartic_cubic(*swallowtail_phi(u, y))
        assert abs(closed) < 1e-9
    assert swallowtail_stratum(-6, 8, -3).stratum == "cuspidal-edge"
    assert swallowtail_stratum(-2, 0, 1).stratum == "self-intersection"
    for _ in range(100):
        c1, c2 = rng.normal(size=2)
        t = 0.01
        before = swallowtail_stratum(*swallowtail_phi(-t, c1 * -t + c2 * t * t)).stratum
        after = swallowtail_stratum(*swallowtail_phi(t, c1 * t + c2 * t * t)).stratum
        assert before == "sheet-with-2-extra-roots"
        assert after == "sheet-with-0-extra-roots"
    report(7, "swallowtail strata")


def test_criterion_08_oracle_concordance():
    """Jet gradients/Hessians against finite differences at 1000 random
    points (relative 1e-5), and jet contact orders against log-log
    slopes on 200 tangency instances of orders 1..4."""
    rng = np.random.default_rng(108)
    pts_done = 0
    while pts_done < 1000:
        tri = [(s, i, rng.normal() * 0.5) for s in (2, 3, 4) for i in range(s + 1)]
        p = (MongePatch.timelike if rng.random() < 0.5 else MongePatch.lightcone)(4, tri)
        ff = feature_fields(fundamental_forms(p))
        kind = ("LD", "LPL", "PC", "MCNC")[rng.integers(4)]
        jet = ff[kind].jet
        for _ in range(25):
            q = rng.uniform(-0.15, 0.15, 2)
            g = jet.gradient_at(*q)
            g_fd = fd_gradient(lambda x, y: float(jet.eval(x, y)), q)
            assert np.abs(g - g_fd).max() <= 1e-5 * max(1.0, np.abs(g).max())
            H = jet.hessian_at(*q)
            H_fd = fd_hessian(lambda x, y: float(jet.eval(x, y)), q)
            assert np.abs(H - H_fd).max() <= 1e-5 * max(1.0, np.abs(H).max())
            pts_done += 1
            if pts_done >= 1000:
                break

    for k in range(200):
        order = k % 4 + 1
        c = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        a = FeatureField("LD", Jet2.from_triangular(5, [(1, 1, 1.0)]))
        b = FeatureField("LPL", Jet2.from_triangular(
            5, [(1, 1, 1.0), (order, 0, c)] if order > 1 else [(1, 0, c)]))
        jet_order = contact_order(a, b, cap=6).order
        xs = np.linspace(-0.02, 0.02, 4001)
        poly = np.column_stack([xs, np.zeros_like(xs)])
        slope = numeric_contact(poly, lambda x, y, bb=b: float(bb.jet.eval(x, y)),
                                (0.0, 0.0))
        assert jet_order == order == slope
    report(8, "oracle concordance")


def test_criterion_09_convention_invariance():
    """Flipping the cross-product sign negates the mean-curvature field
    pointwise while every traced zero set moves by less than a grid
    cell (one-sided Hausdorff over the vertices)."""
    rng = np.random.default_rng(109)
    tri = [(s, i, rng.normal() * 0.6) for s in (2, 3) for i in range(s + 1)]
    p = MongePatch.timelike(3, tri)
    dom = ((-0.2, 0.2), (-0.2, 0.2))
    n = 129
    cell = 0.4 / (n - 1) * np.sqrt(2)
    ff_p = feature_fields(fundamental_forms(p, cross_sign=1.0))
    ff_m = feature_fields(fundamental_forms(p, cross_sign=-1.0))
    for _ in range(50):
        q = rng.uniform(-0.2, 0.2, 2)
        assert abs(float(ff_p["MCNC"].jet.eval(*q)) + float(ff_m["MCNC"].jet.eval(*q))) < 1e-10
    traced_any = False
    for kind in ("LD", "LPL", "PC", "MCNC"):
        ta = trace(ff_p[kind], dom, n)
        tb = trace(ff_m[kind], dom, n)
        assert len(ta.polylines) == len(tb.polylines)
        assert len(ta.isolated) == len(tb.isolated)
        if ta.polylines:
            traced_any = True
            va, vb = ta.vertices(), tb.vertices()
            for src, dst in ((va, vb), (vb, va)):
                d = np.array([np.min(np.hypot(dst[:, 0] - x, dst[:, 1] - y))
                              for x, y in src])
                assert d.max() < cell
    assert traced_any
    report(9, "convention invariance")


def test_criterion_10_determinism(tmp_path):
    """Repeated sweep runs produce byte-identical event JSON, equal to the
    golden digest recorded before the batched zero-set kernels."""
    import hashlib
    import pathlib

    from click.testing import CliRunner

    from minkfeat.cli import main

    scene_data = {
        "version": 1,
        "patch": {"form": "lightcone", "degree": 4,
                  "coefficients": [[2, 2, 0.6], [3, 0, 0.8], [3, 1, 0.3],
                                   [3, 2, -0.2], [3, 3, 0.4]]},
        "domain": {"halfwidth": 0.12},
        "grid": 65,
        "family": {"perturbation": [[1, 0, [1.0]]], "range": [-0.003, 0.003],
                   "samples": 5},
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_data))
    digests = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        r = CliRunner().invoke(main, ["sweep", str(scene), "--out", str(out),
                                      "--grid", "65"])
        assert r.exit_code == 0, r.output
        digests.append(hashlib.sha256((out / "events.json").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    golden = pathlib.Path(__file__).parent / "golden" / "criterion_10_hashes.json"
    assert digests[0] == json.loads(golden.read_text())["events.json"]
    report(10, "determinism")
