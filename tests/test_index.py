"""The indexed lookups of FinCat and FunctorSpec agree with all-morphisms
scans, in contents and in order."""

from fibcat.fib import fibre

from helpers import (
    rand_dag_category,
    rand_discrete_fibration,
    rand_functor,
    scan_composable_pairs,
    scan_fibre,
    scan_hom,
    scan_into,
    scan_lifts,
)


def _check_category(cat):
    assert list(cat.composable_pairs()) == scan_composable_pairs(cat)
    for a in cat.objects:
        assert list(cat.into(a)) == scan_into(cat, a)
        for b in cat.objects:
            assert cat.hom(a, b) == scan_hom(cat, a, b)


def _check_functor(p):
    _check_category(p.dom)
    _check_category(p.cod)
    for c in p.cod.objects:
        fb = fibre(p, c)
        assert (fb.elements, fb.over_identity) == scan_fibre(p, c)
    for u in p.cod.morphisms:
        for e in p.dom.objects:
            assert list(p.lifts(u.id, e)) == scan_lifts(p, u.id, e)


def test_indexes_match_scans(rng):
    for _ in range(40):
        A = rand_dag_category(rng, 4, 5)
        B = rand_dag_category(rng, 4, 5)
        _check_functor(rand_functor(rng, A, B.cat))
        _check_functor(rand_discrete_fibration(rng))
