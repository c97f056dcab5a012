import numpy as np
import pytest

from minkfeat import feature_fields, fundamental_forms
from minkfeat.contact import SingularBaseCurve, contact_order
from minkfeat.jets import Jet2
from minkfeat.oracle import numeric_contact
from minkfeat.patch import FeatureField

from helpers import ld_lpl_patch, lpl_mcnc_point_patch


def field(kind, triples, degree=4):
    return FeatureField(kind, Jet2.from_triangular(degree, triples))


def test_transversal_lines():
    a = field("LD", [(1, 1, 1.0)])                 # y
    b = field("LPL", [(1, 1, 1.0), (1, 0, -1.0)])  # y - x
    assert contact_order(a, b).order == 1


def test_ordinary_tangency():
    a = field("LD", [(1, 1, 1.0)])                 # y
    b = field("LPL", [(1, 1, 1.0), (2, 0, -1.0)])  # y - x^2
    assert contact_order(a, b).order == 2


def test_singular_base_raises():
    a = field("LD", [(2, 0, 1.0), (2, 2, -1.0)])
    b = field("LPL", [(1, 1, 1.0)])
    with pytest.raises(SingularBaseCurve):
        contact_order(a, b)


def test_cap_is_reported():
    a = field("LD", [(1, 1, 1.0)])
    b = field("LPL", [(1, 1, 1.0)])  # identical zero sets: infinite contact
    r = contact_order(a, b, cap=4)
    assert r.order == 4 and r.capped


def test_high_tangency_orders():
    """Degenerate degeneracy/coincidence tangency: orders (4, 2)."""
    rng = np.random.default_rng(0)
    p = ld_lpl_patch(rng, tuned=True)
    ff = feature_fields(fundamental_forms(p))
    assert contact_order(ff["LD"], ff["LPL"]).order == 4
    assert contact_order(ff["LD"], ff["MCNC"]).order == 2


def test_doubling_law_lorentzian():
    """m(LPL, PC) = 2 m(LPL, MCNC) at regular coincidence-locus points."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        degen = rng.random() < 0.5
        p = lpl_mcnc_point_patch(rng, degenerate=degen)
        ff = feature_fields(fundamental_forms(p))
        m_pc = contact_order(ff["LPL"], ff["PC"], cap=8).order
        m_mcnc = contact_order(ff["LPL"], ff["MCNC"], cap=8).order
        assert m_pc == 2 * m_mcnc
        assert (m_mcnc, m_pc) == ((2, 4) if degen else (1, 2))


def test_doubling_law_on_ld():
    """m(LD, LPL) = 2 m(LD, MCNC), hence even, on the degeneracy locus."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        tuned = rng.random() < 0.5
        p = ld_lpl_patch(rng, tuned=tuned, a21=float(rng.uniform(0.5, 1.5)))
        ff = feature_fields(fundamental_forms(p))
        m_lpl = contact_order(ff["LD"], ff["LPL"], cap=8).order
        m_mcnc = contact_order(ff["LD"], ff["MCNC"], cap=8).order
        assert m_lpl == 2 * m_mcnc
        assert m_lpl % 2 == 0
        assert (m_mcnc, m_lpl) == ((2, 4) if tuned else (1, 2))


def test_generic_ld_pc_transversal():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(20):
        p = ld_lpl_patch(rng)  # origin on LD; PC membership is not imposed
        ff = feature_fields(fundamental_forms(p))
        if abs(float(ff["PC"].jet.eval(0, 0))) > 1e-12:
            continue
        hits += 1
        assert contact_order(ff["LD"], ff["PC"]).order == 1
    # PC membership at an LPL point forces umbilic, so hits stays 0; build
    # a direct LD/PC crossing instead: a20 != 0, K(0) = 4 a20 a22 - a21^2 = 0
    checked = 0
    while checked < 10:
        a20 = rng.uniform(0.3, 1.0)
        a21 = rng.normal()
        a22 = a21**2 / (4 * a20)
        from minkfeat import MongePatch

        p = MongePatch.lightcone(3, [(2, 0, a20), (2, 1, a21), (2, 2, a22),
                                     (3, 0, rng.normal()), (3, 1, rng.normal()),
                                     (3, 2, rng.normal()), (3, 3, rng.normal())])
        ff = feature_fields(fundamental_forms(p))
        try:
            order = contact_order(ff["LD"], ff["PC"]).order
        except SingularBaseCurve:
            continue
        checked += 1
        assert order == 1


def test_contact_order_work_count(jet_work):
    """Composing along the IFT graph is univariate: contact_order(cap=8)
    makes no 2-D composition and only the two recentred jets (the 2-D
    route made 10 compositions and 6 734 jets here)."""
    p = lpl_mcnc_point_patch(np.random.default_rng(1), degenerate=True)
    ff = feature_fields(fundamental_forms(p))
    r, work = jet_work(contact_order, ff["LPL"], ff["PC"], cap=8)
    assert r.order == 4
    assert work["compose"] == 0
    assert work["new"] <= 4


def test_numeric_slope_fallback_agrees():
    """The oracle's polyline slope reports the same order as the series
    route on a traced base curve."""
    rng = np.random.default_rng(5)
    for order in (1, 2, 3):
        c = rng.uniform(0.5, 1.5)
        a = field("LD", [(1, 1, 1.0)])
        b = field("LPL", [(1, 1, 1.0), (order, 0, c)] if order > 1 else [(1, 0, c)])
        xs = np.linspace(-0.02, 0.02, 4001)
        poly = np.column_stack([xs, np.zeros_like(xs)])
        assert numeric_contact(poly, b, (0.0, 0.0)) == contact_order(a, b).order == order


def test_contact_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        # two regular curves through the origin with a random tangency order
        k = rng.integers(1, 4)
        a = field("LD", [(1, 1, 1.0), (2, 0, rng.normal())])
        b_t = [(1, 1, 1.0)] + [(int(k) + 1, 0, rng.uniform(0.5, 1.5))]
        b = field("LPL", b_t)
        oa = contact_order(a, b, cap=6).order
        ob = contact_order(b, a, cap=6).order
        assert oa == ob
