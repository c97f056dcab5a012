import numpy as np
import pytest

from minkfeat import (
    FrameDegeneracy,
    MongePatch,
    bde_coefficients,
    bde_jets,
    detect_scenario,
    feature_fields,
    fundamental_forms,
    homothety,
    monge_taylor,
)
from minkfeat.classify import classify_point
from minkfeat.patch import _FORMS
from minkfeat.oracle import fd_gradient, raw_field

from helpers import lightlike_umbilic_patch, random_lightcone, random_timelike


def test_lightcone_origin_constants():
    p = MongePatch.lightcone(2, [(2, 0, 0.25), (2, 1, 0.5), (2, 2, 0.75)])
    b = fundamental_forms(p)
    vals = [float(j.eval(0, 0)) for j in (b.E, b.F, b.G, b.l, b.m, b.n)]
    assert np.allclose(vals, [0, 0, 1, 0.5, 0.5, 1.5], atol=1e-14)


def test_timelike_origin_constants():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = random_timelike(rng)
        b = fundamental_forms(p)
        assert np.allclose(
            [float(j.eval(0, 0)) for j in (b.E, b.F, b.G)], [1, 0, -1], atol=1e-14
        )


def test_delta_closed_forms():
    rng = np.random.default_rng(1)
    for maker, closed in (
        (random_timelike, lambda fx, fy: 1 + fx**2 - fy**2),
        (random_lightcone, lambda fx, fy: fx**2 + fy**2 - 1),
    ):
        p = maker(rng)
        ff = feature_fields(fundamental_forms(p))
        fxj, fyj = p.f.diff("x"), p.f.diff("y")
        for _ in range(10):
            q = rng.uniform(-0.2, 0.2, 2)
            want = closed(float(fxj.eval(*q)), float(fyj.eval(*q)))
            assert abs(float(ff["LD"].jet.eval(*q)) - want) < 1e-12


def test_lightlike_umbilic_second_jet_of_delta():
    """j2 of the degeneracy field at a lightlike umbilic in closed form."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        a22, a30, a31, a32, a33 = rng.normal(size=5)
        p = MongePatch.lightcone(
            3, [(2, 2, a22), (3, 0, a30), (3, 1, a31), (3, 2, a32), (3, 3, a33)]
        )
        d = feature_fields(fundamental_forms(p))["LD"].jet
        assert abs(d.coeff(2, 0) - 6 * a30) < 1e-12
        assert abs(d.coeff(1, 1) - 4 * a31) < 1e-12
        assert abs(d.coeff(0, 2) - (4 * a22**2 + 2 * a32)) < 1e-12
        assert max(abs(d.coeff(0, 0)), abs(d.coeff(1, 0)), abs(d.coeff(0, 1))) < 1e-14


def test_feature_field_examples():
    # origin on the coincidence locus iff a20 = 0
    p0 = MongePatch.lightcone(2, [(2, 1, 0.4), (2, 2, -0.3)])
    assert abs(float(feature_fields(fundamental_forms(p0))["LPL"].jet.eval(0, 0))) < 1e-14
    p1 = MongePatch.lightcone(2, [(2, 0, 0.3)])
    v = float(feature_fields(fundamental_forms(p1))["LPL"].jet.eval(0, 0))
    assert abs(v - 0.36) < 1e-14


def test_timelike_umbilic_condition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a20, a21, a22 = rng.normal(size=3)
        p = MongePatch.timelike(2, [(2, 0, a20), (2, 1, a21), (2, 2, a22)])
        A, B, C = bde_coefficients(fundamental_forms(p), (0, 0))
        is_umb = max(abs(A), abs(B), abs(C)) < 1e-12
        assert is_umb == (abs(a20 + a22) < 1e-12 and abs(a21) < 1e-12)
    p = MongePatch.timelike(2, [(2, 0, 1.0), (2, 2, -1.0)])
    assert classify_point(p).umbilic == "timelike"


def test_bde_coefficients_at_origin():
    a20, a21, a22 = 0.7, -0.4, 0.2
    p = MongePatch.timelike(2, [(2, 0, a20), (2, 1, a21), (2, 2, a22)])
    A, B, C = bde_coefficients(fundamental_forms(p), (0, 0))
    assert np.allclose([A, B, C], [a21, 2 * a20 + 2 * a22, a21], atol=1e-14)


def test_discriminant_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = random_timelike(rng) if rng.random() < 0.5 else random_lightcone(rng)
        b = fundamental_forms(p)
        dtil = feature_fields(b)["LPL"].jet
        for _ in range(5):
            q = rng.uniform(-0.15, 0.15, 2)
            A, B, C = bde_coefficients(b, q)
            assert abs(float(dtil.eval(*q)) - (B * B - 4 * A * C)) < 1e-10 * max(
                1.0, abs(B * B)
            )


def test_forms_match_finite_differences():
    """Bundle values agree with the raw-embedding evaluator at interior points."""
    rng = np.random.default_rng(5)
    p = random_timelike(rng)
    ff = feature_fields(fundamental_forms(p))
    for kind in ("LD", "LPL", "PC", "MCNC"):
        raw = raw_field(p, kind)
        for _ in range(20):
            q = rng.uniform(-0.1, 0.1, 2)
            a = float(ff[kind].jet.eval(*q))
            assert abs(a - raw(*q)) < 1e-6 * max(1.0, abs(a))


def test_ld_gradient_matches_eq6_pattern():
    """For a lightcone patch the degeneracy gradient at the origin is
    (4 a20, 2 a21); regularity iff (a20, a21) != 0, checked against
    finite differences."""
    rng = np.random.default_rng(6)
    for _ in range(10):
        a20, a21 = rng.normal(size=2)
        p = MongePatch.lightcone(3, [(2, 0, a20), (2, 1, a21), (2, 2, rng.normal()),
                                     (3, 0, rng.normal())])
        d = feature_fields(fundamental_forms(p))["LD"].jet
        g = d.gradient_at(0.0, 0.0)
        assert np.allclose(g, [4 * a20, 2 * a21], atol=1e-12)
        g_fd = fd_gradient(lambda x, y: float(d.eval(x, y)), (0.0, 0.0))
        assert np.allclose(g, g_fd, atol=1e-8)


def test_jet_matches_evaluator_inside_radius():
    rng = np.random.default_rng(7)
    p = random_lightcone(rng)
    ff = feature_fields(fundamental_forms(p))
    X, Y = np.meshgrid(np.linspace(-0.05, 0.05, 11), np.linspace(-0.05, 0.05, 11))
    for f in ff.values():
        assert np.max(np.abs(f(X, Y) - f.jet.eval(X, Y))) < 1e-10


# ------------------------------------------------------------- monge_taylor
def test_monge_taylor_identity_at_origin():
    rng = np.random.default_rng(8)
    p = random_timelike(rng)
    q = monge_taylor(p, (0.0, 0.0))
    assert q.form == p.form
    assert np.allclose(q.f.c, p.f.c, atol=1e-12)


def test_monge_taylor_membership_invariance():
    rng = np.random.default_rng(9)
    p = random_timelike(rng, scale=0.4)
    ff = feature_fields(fundamental_forms(p))
    checked = 0
    for _ in range(60):
        if checked >= 50:
            break
        q = rng.uniform(-0.08, 0.08, 2)
        try:
            pq = monge_taylor(p, q)
        except FrameDegeneracy:
            continue
        checked += 1
        old = set()
        for kind in ("LPL", "PC", "MCNC"):
            val = float(ff[kind].jet.eval(*q))
            scale = max(1.0, np.linalg.norm(ff[kind].jet.gradient_at(*q)))
            if abs(val) < 1e-8 * scale:
                old.add(kind)
        assert classify_point(pq, (0.0, 0.0)).memberships == frozenset(old)
    assert checked == 50


def test_monge_taylor_to_lightcone_form():
    """A timelike patch recentred at a nearby degenerate point returns the
    lightcone normal form with unit lightlike 1-jet."""
    p = MongePatch.timelike(3, [(2, 2, 3.0), (2, 0, 0.2), (3, 0, 0.1), (3, 1, -0.2)])
    from minkfeat.tracer import trace

    ld = trace(feature_fields(fundamental_forms(p))["LD"], ((-0.2, 0.2), (-0.2, 0.2)), 129)
    assert ld.polylines
    v = ld.vertices()[3]
    pq = monge_taylor(p, v)
    assert pq.form == "lightcone"
    assert pq.a(1, 0) ** 2 + pq.a(0, 1) ** 2 == 1.0
    assert classify_point(pq, (0.0, 0.0)).region == "OnLD"


def test_monge_taylor_rejects_riemannian():
    p = MongePatch.timelike(2, [(2, 2, 3.0)])  # delta = 1 - 36 z^2 < 0 for |z| > 1/6
    with pytest.raises(FrameDegeneracy):
        monge_taylor(p, (0.0, 0.24))


def test_homothety_preserves_form_and_scales():
    rng = np.random.default_rng(10)
    p = random_lightcone(rng)
    lam = 1.7
    q = homothety(p, lam)
    assert q.form == p.form
    assert abs(q.a(2, 1) - p.a(2, 1) / lam) < 1e-14
    assert abs(q.a(3, 0) - p.a(3, 0) / lam**2) < 1e-14


def test_derived_jets_shared_while_bundle_held():
    p = random_timelike(np.random.default_rng(3))
    bundle = fundamental_forms(p)
    assert fundamental_forms(p) is bundle
    assert feature_fields(fundamental_forms(p)) is feature_fields(bundle)
    assert bde_jets(fundamental_forms(p)) is bde_jets(bundle)
    minus = fundamental_forms(p, cross_sign=-2.0)
    assert minus is not bundle and minus.cross_sign == -1.0
    assert fundamental_forms(p, cross_sign=-1.0) is minus


def test_bundle_not_retained_after_detect_scenario():
    """Bundles are memoised weakly: once detect_scenario returns, nothing
    derived from the patch stays alive."""
    p = lightlike_umbilic_patch(np.random.default_rng(3))
    assert detect_scenario(p).scenario == "LIGHTLIKE_UMBILIC"
    assert (id(p), 1.0) not in _FORMS


@pytest.mark.parametrize("sign", [0.0, -0.0, float("nan")])
def test_fundamental_forms_rejects_unsigned_cross_sign(sign):
    with pytest.raises(ValueError):
        fundamental_forms(random_timelike(np.random.default_rng(3)), cross_sign=sign)


def test_cross_convention_flip():
    """Flipping the cross-product sign negates the mean-curvature field
    pointwise and leaves the other three fields unchanged."""
    rng = np.random.default_rng(11)
    p = random_timelike(rng)
    f_plus = feature_fields(fundamental_forms(p, cross_sign=1.0))
    f_minus = feature_fields(fundamental_forms(p, cross_sign=-1.0))
    for _ in range(20):
        q = rng.uniform(-0.2, 0.2, 2)
        assert np.isclose(float(f_plus["MCNC"].jet.eval(*q)),
                          -float(f_minus["MCNC"].jet.eval(*q)), atol=1e-12)
        for kind in ("LD", "LPL", "PC"):
            assert np.isclose(float(f_plus[kind].jet.eval(*q)),
                              float(f_minus[kind].jet.eval(*q)), atol=1e-12)
