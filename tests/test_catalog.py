from __future__ import annotations

import math
from dataclasses import replace

import pytest

from twistsurvey import bsd_oracle, catalog
from twistsurvey.bsd_oracle import weight_two_table
from twistsurvey.errors import NotInCatalogError

from oracles import prime_support, rational_cubic_roots


def test_labels_and_lookup():
    assert catalog.LABELS == ("11a1", "14a1", "17a1", "20a1", "34a1")
    for label in catalog.LABELS:
        assert catalog.curve(label).label == label
    with pytest.raises(NotInCatalogError):
        catalog.curve("37a1")
    with pytest.raises(NotInCatalogError):
        catalog.curve("11A1")


CURVE_ROWS = {
    # conductor, (a1,a2,a3,a4,a6), modulus, class reps, torsion order t
    "11a1": (11, (0, -1, 1, -10, -20), 44, (1, 3, 5, 15, 23, 31, 37), 1),
    "14a1": (14, (1, 0, 1, 4, -6), 56, (1, 15, 23, 29, 37, 39, 53), 2),
    "17a1": (17, (1, -1, 1, -1, -14), 68, (3, 7, 11, 23, 31, 39), 2),
    "20a1": (20, (0, 1, 0, 4, 4), 40, (1, 21, 29), 2),
    "34a1": (34, (1, 0, 0, -3, 1), 136,
             (1, 13, 19, 21, 33, 35, 43, 53, 59, 67, 69, 77, 83, 89, 93,
              101, 115, 117, 123), 2),
}


@pytest.mark.parametrize("label", catalog.LABELS)
def test_curve_rows_frozen(label):
    cond, ainv, modulus, reps, torsion = CURVE_ROWS[label]
    spec = catalog.curve(label)
    assert spec.conductor == cond
    assert spec.weierstrass == ainv
    assert spec.table_modulus == modulus
    assert spec.class_reps == reps
    assert spec.family_torsion == torsion


def test_discriminants_and_invariants():
    # minimal-model discriminants; prime support equals the conductor's
    want = {
        "11a1": -161051,  # -11^5
        "14a1": -21952,  # -2^6 7^3
        "17a1": -83521,  # -17^4
        "20a1": -6400,  # -2^8 5^2
        "34a1": 1088,  # 2^6 17
    }
    for label, disc in want.items():
        spec = catalog.curve(label)
        assert spec.discriminant() == disc
        b2, b4, b6 = spec.b_invariants()
        c4, c6 = spec.c_invariants()
        assert c4 ** 3 - c6 ** 2 == 1728 * disc


def test_torsion_matches_two_division_roots():
    # t - 1 counts the rational 2-torsion points, i.e. the rational roots
    # of 4x^3 + b2 x^2 + 2 b4 x + b6
    for label in catalog.LABELS:
        spec = catalog.curve(label)
        roots = rational_cubic_roots(*spec.b_invariants())
        assert spec.family_torsion == 1 + len(roots)
        for r in roots:
            b2, b4, b6 = spec.b_invariants()
            assert 4 * r ** 3 + b2 * r ** 2 + 2 * b4 * r + b6 == 0


@pytest.mark.parametrize("label", catalog.LABELS)
def test_discriminant_has_the_conductors_prime_support(label):
    spec = catalog.curve(label)
    assert prime_support(spec.discriminant()) == prime_support(spec.conductor)


@pytest.mark.parametrize("label", catalog.LABELS)
def test_modulus_and_class_reps_fit_the_conductor(label):
    # the modulus carries 4 and every odd conductor prime, and each rep is
    # a unit mod it, so every class member is odd and coprime to N
    spec = catalog.curve(label)
    modulus = spec.table_modulus
    assert modulus % 4 == 0
    for p in prime_support(spec.conductor) - {2}:
        assert modulus % p == 0, p
    for n0 in spec.class_reps:
        assert math.gcd(n0, modulus) == 1, n0


def test_recipe_forms_share_discriminant():
    for label in catalog.LABELS:
        spec = catalog.curve(label)
        discs = {form.discriminant() for _, form in spec.recipe.terms}
        assert len(discs) == 1
        assert next(iter(discs)) < 0


@pytest.mark.parametrize("label", catalog.LABELS)
def test_baseline_fields(label):
    spec = catalog.curve(label)
    for n0 in spec.class_reps:
        base = catalog.baseline(spec, n0)
        assert base.curve == label and base.n0 == n0
        assert base.n0_effective % spec.table_modulus == n0
        assert base.a_n0 != 0
        r = math.isqrt(base.k0)
        assert r * r == base.k0
        assert base.l_n0 > 0
        # every anchor's parity has a catalogued BSD constant
        assert base.n0_effective % 4 in spec.bsd_local


def test_baseline_unknown_class():
    spec = catalog.curve("11a1")
    with pytest.raises(NotInCatalogError):
        catalog.baseline(spec, 7)  # 7 mod 44 is a deleted class
    with pytest.raises(NotInCatalogError):
        catalog.baseline(spec, 45)  # classes are canonical residues


def test_parse_overrides_roundtrip():
    text = """
    # tweak one anchor
    14a1.29.k0 = 9
    14a1.29.c_n0 = 16
    11a1.3.l_n0 = 1.25
    """
    got = catalog.parse_overrides(text)
    assert got == {
        ("14a1", 29, "k0"): 9,
        ("14a1", 29, "c_n0"): 16,
        ("11a1", 3, "l_n0"): 1.25,
    }
    spec = catalog.curve("14a1")
    base = catalog.baseline(spec, 29, overrides=got)
    assert base.k0 == 9 and base.c_n0 == 16
    # untouched classes keep their frozen row
    other = catalog.baseline(spec, 1, overrides=got)
    assert other.k0 == 1 and other.c_n0 == 1


@pytest.mark.parametrize(
    "line",
    [
        "14a1.29.k0",  # no '='
        "14a1.29 = 4",  # not curve.class.field
        "99z9.29.k0 = 4",  # unknown curve
        "14a1.28.k0 = 4",  # unknown class
        "14a1.29.rank = 4",  # unknown field
        "14a1.29.k0 = x",  # bad int
        "14a1.29.k0 = 4\n14a1.29.k0 = 9",  # repeated field
        "14a1.29.k0 = 4\n# same field\n14a1.029.k0 = 4",  # repeated class
        "17a1.3.a_n0 = 0",  # no transfer from a zero coefficient
        "17a1.3.k0 = 0",  # would put rank-zero rows in the k = 0 bucket
        "17a1.3.c_n0 = 0",
        "17a1.3.n0_effective = -3",  # L = nan
        "17a1.3.l_n0 = -1.0",  # negative L-values
        "17a1.3.l_n0 = 0.0",
        "17a1.3.l_n0 = nan",
        "17a1.3.l_n0 = inf",
    ],
)
def test_parse_overrides_rejects(line):
    with pytest.raises(ValueError, match=r"^override line \d+: "):
        catalog.parse_overrides(line)


def test_all_frozen_baselines_reproduced_from_scratch():
    # every field of the entire baseline table, re-derived through the
    # series L-value, AGM period and component counts
    for label in catalog.LABELS:
        spec = catalog.curve(label)
        coeffs = weight_two_table(
            spec,
            [(catalog.baseline(spec, n0).n0_effective, 1e-9)
             for n0 in spec.class_reps],
        )
        for n0 in spec.class_reps:
            want = catalog.baseline(spec, n0)
            got = bsd_oracle.baseline_selmer(spec, n0, coeffs)
            assert got.l_n0 == pytest.approx(want.l_n0, rel=1e-9), (label, n0)
            assert replace(got, l_n0=want.l_n0) == want, f"{got} != {want}"
