import numpy as np
import pytest

from minkfeat import MongePatch, lambda_invariants
from minkfeat.cli import PAIRS
from minkfeat.family import (
    FamilySpec,
    IntersectionMonitor,
    IsolatedZeroMonitor,
    UmbilicOnCurveMonitor,
    a3_deformation_path,
    swallowtail_phi,
    swallowtail_stratum,
    sweep,
    umbilic_points,
    umbilic_tracker,
)
from minkfeat.jets import resultant_quartic_cubic
from minkfeat.tracer import _NEWTON_ITERS

from helpers import (
    flat_umbilic_patch,
    lightlike_umbilic_patch,
    lpl_mcnc_point_patch,
    non_morse_umbilic_patch,
)

DOM = ((-0.06, 0.06), (-0.06, 0.06))


# ----------------------------------------------------------------- swallowtail
def test_stratum_examples():
    assert swallowtail_stratum(-6, 8, -3).stratum == "cuspidal-edge"
    assert swallowtail_stratum(-2, 0, 1).stratum == "self-intersection"
    assert swallowtail_stratum(0, 0, 1).stratum == "open-0-roots"
    assert swallowtail_stratum(0, 0, 0).stratum == "origin"
    assert swallowtail_stratum(-1, 0, 0.2).stratum == "open-4-roots"
    assert swallowtail_stratum(1, 0, -0.2).stratum == "open-2-roots"


def test_gamma_curves_strata():
    for t in (0.3, -0.5, 1.0):
        g1 = (-6 * t**2, 8 * t**3, -3 * t**4)
        g2 = (-2 * t**2, 0.0, t**4)
        assert swallowtail_stratum(*g1).stratum == "cuspidal-edge"
        assert swallowtail_stratum(*g2).stratum == "self-intersection"
        assert np.allclose(swallowtail_phi(-6 * t**2, t), g1)
        assert np.allclose(swallowtail_phi(-2 * t**2, t), g2)


def test_phi_examples():
    assert swallowtail_phi(-2, 1) == (-2, 0.0, 1.0)
    assert swallowtail_phi(0.7, 0) == (0.7, 0.0, 0.0)


def test_resultant_vanishes_on_phi():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        u, y = rng.uniform(-1, 1, 2)
        closed, sylv = resultant_quartic_cubic(*swallowtail_phi(u, y))
        assert abs(closed) < 1e-9


def test_regular_curves_cross_sheet_types():
    """Smooth regular on-surface curves through the origin pass from the
    two-extra-roots sheet to the zero-extra-roots sheet."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        c1, c2 = rng.normal(size=2)
        yfun = lambda t: c1 * t + c2 * t**2
        before = swallowtail_stratum(*swallowtail_phi(-0.01, yfun(-0.01))).stratum
        after = swallowtail_stratum(*swallowtail_phi(0.01, yfun(0.01))).stratum
        assert before == "sheet-with-2-extra-roots"
        assert after == "sheet-with-0-extra-roots"


# -------------------------------------------------------------------- specs
def test_family_reproduces_base_at_zero():
    rng = np.random.default_rng(2)
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,), (2, 2): (0.0, 2.0)})
    assert spec.patch_at(0.0) is base
    p = spec.patch_at(0.01)
    assert abs(p.a(1, 0) - (1.0 + 0.01)) < 1e-15
    assert abs(p.a(2, 2) - (base.a(2, 2) + 2.0 * 1e-4)) < 1e-15
    h = spec.linear_part()
    assert h.coeff(1, 0) == 1.0 and h.coeff(0, 2) == 0.0


# ------------------------------------------------------------------- sweeps
def test_sweep_tangency_family_counts():
    """Tangent coincidence/mean-curvature pair: intersections 2 <-> 0."""
    rng = np.random.default_rng(23)
    base = lpl_mcnc_point_patch(rng, degenerate=True)
    mon = IntersectionMonitor("LPL", "MCNC")
    spec = FamilySpec(base, {(2, 2): (1.0,)}, t_range=(-0.002, 0.002), samples=8)
    res = sweep(spec, [mon], domain=DOM, n=97)
    counts = [s[mon.name] for s in res.snapshots]
    assert counts[0] in (0, 2) and counts[-1] in (0, 2) and counts[0] != counts[-1]
    assert res.events
    for e in res.events:
        assert abs(e.t_star) < 1e-4 * 0.004
        assert e.width <= 1e-4 * 0.004


def test_sweep_flat_umbilic_family():
    """At a flat timelike umbilic the mean-curvature curve meets each
    branch of the coincidence locus once for every t != 0, and slides
    through the umbilic at t = 0."""
    p = MongePatch.timelike(3, [(3, 0, 1.0), (3, 1, 0.3), (3, 2, -0.5), (3, 3, 0.2)])
    spec = FamilySpec(p, {(2, 0): (1.0,)}, t_range=(-0.001, 0.001), samples=8)
    lv = lambda_invariants(p, family=spec)
    assert abs(lv.values["Lambda8"]) > 1e-6
    mon = IntersectionMonitor("LPL", "MCNC")
    side = UmbilicOnCurveMonitor("MCNC")
    res = sweep(spec, [mon, side], domain=((-0.05, 0.05), (-0.05, 0.05)), n=97)
    counts = [s[mon.name] for s in res.snapshots]
    assert all(c == 2 for c in counts)
    sides = [s[side.name] for s in res.snapshots]
    assert sides[0] * sides[-1] == -1
    ev = [e for e in res.events if e.monitor == side.name]
    assert len(ev) == 1 and abs(ev[0].t_star) < 1e-4 * 0.002


def test_sweep_lightlike_umbilic_family():
    """Degeneracy locus against the mean-curvature curve: 2 or 0 points by
    the sign of a30 * h_xt * Lambda13 * t."""
    rng = np.random.default_rng(3)
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.003, 0.003), samples=8)
    lv = lambda_invariants(base, family=spec)
    mon = IntersectionMonitor("LD", "MCNC")
    res = sweep(spec, [mon], domain=((-0.12, 0.12), (-0.12, 0.12)), n=97)
    counts = [s[mon.name] for s in res.snapshots]
    gate = base.a(3, 0) * 1.0 * lv.values["Lambda13"]  # Lambda14 / t
    lo, hi = counts[0], counts[-1]
    assert {lo, hi} == {0, 2}
    # Lambda14 < 0 gives 2 points: t < 0 side has 2 iff gate > 0
    assert (lo == 2) == (gate > 0)
    for e in res.events:
        assert abs(e.t_star) < 1e-4 * 0.006


def test_sweep_identity_family_no_events():
    rng = np.random.default_rng(4)
    base = lpl_mcnc_point_patch(rng, degenerate=True)
    spec = FamilySpec(base, {(2, 2): (0.0,)}, t_range=(-0.002, 0.002), samples=5)
    res = sweep(spec, [IntersectionMonitor("LPL", "MCNC")], domain=DOM, n=65)
    assert res.events == []


def test_sweep_monitors_share_one_field_set_per_sample(jet_work):
    """All six intersection monitors at one t share one bundle, and with
    it one sign-cell grid per field: 4 grids per sample (a fresh field
    set per monitor made 18 bundles and 36 grids)."""
    rng = np.random.default_rng(4)
    base = lpl_mcnc_point_patch(rng, degenerate=True)
    spec = FamilySpec(base, {(2, 2): (0.0,)}, t_range=(-0.002, 0.002), samples=3)
    monitors = [IntersectionMonitor(a, b) for a, b in PAIRS]
    res, work = jet_work(sweep, spec, monitors, domain=DOM, n=65)
    assert res.events == []
    assert work["forms"] <= 3
    assert work["eval_grid"] <= 12


def test_sweep_unclosable_bracket_raises():
    from minkfeat.family import EventBracketError, _Monitor

    class Flapping(_Monitor):
        name = "flapping"

        def __init__(self):
            self.calls = 0

        def measure(self, patch, domain, n):
            self.calls += 1
            return self.calls

    rng = np.random.default_rng(11)
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.001, 0.001), samples=3)
    with pytest.raises(EventBracketError):
        sweep(spec, [Flapping()], domain=DOM, n=65)


@pytest.mark.parametrize("resolution", [0.0, -1e-4, np.nan, np.inf])
def test_sweep_rejects_bad_resolution(resolution):
    spec = FamilySpec(lightlike_umbilic_patch(np.random.default_rng(11)), {(1, 0): (1.0,)},
                      t_range=(-0.001, 0.001), samples=3)
    with pytest.raises(ValueError, match="resolution"):
        sweep(spec, [IntersectionMonitor("LD", "MCNC")], domain=DOM, n=65,
              resolution=resolution)


def test_sweep_halving_stops_at_adjacent_floats():
    """A resolution finer than float spacing ends the bisection at a
    bracket of adjacent floats instead of halving forever."""
    from minkfeat.family import _Monitor

    base = lightlike_umbilic_patch(np.random.default_rng(11))

    class Step(_Monitor):
        name = "step"
        calls = 0

        def measure(self, patch, domain, n):
            self.calls += 1
            assert self.calls < 1000, "bisection does not terminate"
            return int(patch.a(1, 0) > base.a(1, 0) + 3e-4)

    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.001, 0.001), samples=3)
    mon = Step()
    res = sweep(spec, [mon], domain=DOM, n=65, resolution=1e-300)
    [e] = res.events
    assert (e.before, e.after) == (0, 1)
    assert e.t_hi == np.nextafter(e.t_lo, np.inf)
    assert mon.calls < 100


def test_sweep_events_stable_under_step_halving():
    rng = np.random.default_rng(30)
    base = lightlike_umbilic_patch(rng)
    mon = IntersectionMonitor("LD", "MCNC")
    dom = ((-0.1, 0.1), (-0.1, 0.1))
    events = []
    for samples in (6, 12):
        spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.002, 0.002),
                          samples=samples)
        res = sweep(spec, [mon], domain=dom, n=65)
        events.append(res.events)
    assert len(events[0]) == len(events[1])
    for e0, e1 in zip(events[0], events[1]):
        assert (e0.monitor, e0.before, e0.after) == (e1.monitor, e1.before, e1.after)
        # localizations agree within the bracket widths
        assert abs(e0.t_star - e1.t_star) <= e0.width + e1.width


def test_census_sees_ld_morse_transition():
    """Independent census view of the degeneracy-locus Morse family:
    isolated point at t = 0, empty on one side, a curve on the other."""
    from minkfeat.oracle import grid_zero_census, raw_field

    rng = np.random.default_rng(5)
    base = lightlike_umbilic_patch(rng)
    assert lambda_invariants(base).values["Lambda13"] > 0  # definite case
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.003, 0.003), samples=7)
    dom = ((-0.05, 0.05), (-0.05, 0.05))
    rows = []
    for t in (-0.003, 0.0, 0.003):
        comps, isolated = grid_zero_census(raw_field(spec.patch_at(t), "LD"), dom, 49)
        rows.append((comps, isolated))
    assert rows[1][1] == 1  # isolated zero at the degenerate moment
    sides = {rows[0][0], rows[2][0]}
    assert sides == {0, 1}  # empty on one side, an oval on the other


def test_sweep_ld_morse_transition():
    """The degeneracy locus of a lightlike-umbilic family undergoes the
    Morse transition: in the definite case an isolated point at t = 0
    turns into an oval on one side and disappears on the other; in the
    saddle case a crossing opens into hyperbola branches."""
    rng = np.random.default_rng(5)
    found_plus = found_minus = False
    from minkfeat.family import ComponentMonitor

    for _ in range(10):
        base = lightlike_umbilic_patch(rng)
        L13 = lambda_invariants(base).values["Lambda13"]  # det Hess(j2 delta) / 16
        spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.003, 0.003), samples=7)
        iso = IsolatedZeroMonitor("LD")
        comp = ComponentMonitor("LD")
        res = sweep(spec, [iso, comp], domain=((-0.1, 0.1), (-0.1, 0.1)), n=129)
        isolated = [s[iso.name] for s in res.snapshots]
        comps = [s[comp.name] for s in res.snapshots]
        mid = 3  # t = 0 sample
        if L13 > 0:  # definite quadratic model
            found_plus = True
            assert isolated[mid] == 1
            assert {comps[0], comps[-1]} == {0, 1}  # empty one side, oval other
        else:  # saddle
            found_minus = True
            assert isolated[mid] == 0
            assert comps[0] >= 1 and comps[-1] >= 1
        if found_plus and found_minus:
            break
    assert found_plus and found_minus


# ------------------------------------------------------------------ umbilics
def test_umbilic_points_at_timelike_umbilic():
    p = MongePatch.timelike(3, [(2, 0, 0.5), (2, 2, -0.5), (3, 0, 0.3), (3, 1, 0.1)])
    pts = umbilic_points(p, DOM)
    assert len(pts) == 1
    assert np.hypot(*pts[0]) < 1e-9


def test_umbilic_points_eval_count_independent_of_seeds(jet_work, monkeypatch):
    """All seeds polish as one batch: 3 residuals up front, then 6
    Jacobian entries and 3 residuals per step, whatever the seed count
    (13 seeds here, where a loop per seed made 4 899 calls)."""
    import minkfeat.family as family

    seeds = []
    batched = family._newton_rows
    monkeypatch.setattr(family, "_newton_rows",
                        lambda F, J, P, *args: seeds.append(len(P)) or batched(F, J, P, *args))
    base = non_morse_umbilic_patch(np.random.default_rng(7))
    pts, work = jet_work(umbilic_points, base, ((-0.05, 0.05), (-0.05, 0.05)))
    assert len(pts) == 1
    assert work["eval"] <= 9 * _NEWTON_ITERS + 3
    assert seeds == [13]


def test_umbilic_tracker_base_at_zero():
    rng = np.random.default_rng(6)
    base = non_morse_umbilic_patch(rng)
    spec = FamilySpec(base, {(2, 1): (1.0,)}, t_range=(-0.0004, 0.0004), samples=5)
    track = umbilic_tracker(spec, domain=((-0.05, 0.05), (-0.05, 0.05)))
    base_pts = umbilic_points(base, ((-0.05, 0.05), (-0.05, 0.05)))
    mid = track[2]
    assert mid["t"] == 0.0
    assert len(mid["umbilics"]) == len(base_pts)


def test_umbilic_births_and_mirror():
    """Across the degenerate umbilic the count passes 0, 1, 2; flipping
    the perturbation mirrors the sides."""
    rng = np.random.default_rng(7)
    base = non_morse_umbilic_patch(rng)
    dom = ((-0.05, 0.05), (-0.05, 0.05))
    spec = FamilySpec(base, {(2, 1): (1.0,)}, t_range=(-0.0004, 0.0004), samples=5)
    counts = [len(e["umbilics"]) for e in umbilic_tracker(spec, dom)]
    specm = FamilySpec(base, {(2, 1): (-1.0,)}, t_range=(-0.0004, 0.0004), samples=5)
    mirror = [len(e["umbilics"]) for e in umbilic_tracker(specm, dom)]
    assert counts[2] == 1 and mirror[2] == 1
    assert sorted({counts[0], counts[-1]}) == [0, 2]
    assert mirror[0] == counts[-1] and mirror[-1] == counts[0]


def test_lightlike_umbilic_is_stable():
    """Exactly one umbilic persists for all small t when the degeneracy
    field has a Morse singularity."""
    rng = np.random.default_rng(8)
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.002, 0.002), samples=5)
    for entry in umbilic_tracker(spec, domain=((-0.08, 0.08), (-0.08, 0.08))):
        assert len(entry["umbilics"]) == 1


# -------------------------------------------------------------- A3 unfolding
def test_a3_path_lightlike_umbilic():
    rng = np.random.default_rng(9)
    base = lightlike_umbilic_patch(rng)
    spec = FamilySpec(base, {(1, 0): (1.0,)}, t_range=(-0.002, 0.002), samples=9)
    path = a3_deformation_path(spec)
    # base point is the origin of the versal parameters
    i0 = int(np.argmin(np.abs(path["t"])))
    assert np.abs(path["w"][i0]).max() < 1e-12
    assert path["strata"][i0] == "origin"
    # stratum sequence crosses the two sheet types
    assert path["strata"][0] == "sheet-with-2-extra-roots"
    assert path["strata"][-1] == "sheet-with-0-extra-roots"
    # tangent along w1 with the predicted magnitude
    lv = lambda_invariants(base).values
    pred = np.sqrt(32 * abs(lv["Lambda13"]) / (3 * abs(base.a(3, 0))))
    tangent = path["tangent"]
    assert abs(abs(tangent[0]) - pred) < 0.02 * pred
    assert np.abs(tangent[1:]).max() < 0.02 * pred


def test_reduced_psi_raises_at_vanishing_second_derivative():
    """The LPL field of the lightcone patch f = x + y^2 vanishes
    identically, so the Newton anchor of the critical curve has no
    derivative to divide by: the reduction raises instead of returning
    the unpolished origin."""
    from minkfeat.family import _reduced_psi

    with pytest.raises(ZeroDivisionError):
        _reduced_psi(MongePatch.lightcone(2, [(2, 2, 1.0)]))


def test_a3_path_degenerate_timelike_umbilic():
    """Two umbilics on one side of the family: the versal path rides the
    self-intersection stratum there and leaves the discriminant on the
    other side."""
    rng = np.random.default_rng(10)
    base = non_morse_umbilic_patch(rng)
    spec = FamilySpec(base, {(2, 1): (1.0,)}, t_range=(-0.0004, 0.0004), samples=9)
    path = a3_deformation_path(spec)
    strata = path["strata"]
    i0 = int(np.argmin(np.abs(path["t"])))
    assert strata[i0] == "origin"
    sides = {s for s in (strata[0], strata[-1])}
    assert "self-intersection" in sides
    assert any(s.startswith("open-") for s in sides)
    # the two-umbilic side is the self-intersection side
    dom = ((-0.05, 0.05), (-0.05, 0.05))
    counts = [len(e["umbilics"]) for e in umbilic_tracker(
        FamilySpec(base, {(2, 1): (1.0,)}, t_range=(-0.0004, 0.0004), samples=3), dom)]
    two_side_first = counts[0] == 2
    assert (strata[0] == "self-intersection") == two_side_first
    assert np.abs(path["tangent"][1:]).max() < 0.05 * abs(path["tangent"][0])
