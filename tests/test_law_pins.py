"""Law reports and fold-limit results pinned across commits.

``tests/test_csv_pins.py`` pins CLI bytes, and ``check-laws`` runs on the
oracle route, so nothing there covers the fold limits behind the
construction route of a law, nor the oracle laws ``check-laws`` leaves
out of its pinned config.  These hashes of ``repr(LawReport)`` and of the
``repr`` of a few fold-limit results were recorded from an earlier build;
every slack, tolerance and worst-case witness of these small calls must
keep each bit.
"""

import hashlib

import pytest

from penergy.construction import outer_measure_lb, reflection_gap
from penergy.forms import PLIntervalForm
from penergy.laws import (dyadic_sets, law_chain_rule,
                          law_functional_identity, law_image_density,
                          law_leibniz, law_locality, law_measure_clarkson,
                          law_measure_triangle, law_multivariable_chain)
from penergy.pl import IntervalSet, PLMap
from penergy.sampler import PLSampler
from references import LAW_SCHEDULE, check_fold_identity

CALLS = {
    "measure_clarkson": lambda form: law_measure_clarkson(
        form, PLSampler(seed=11), trials=3, route="construction",
        sets=dyadic_sets(3)),
    "measure_triangle": lambda form: law_measure_triangle(
        form, PLSampler(seed=11), trials=3, route="construction",
        sets=dyadic_sets(3)),
    "locality": lambda form: law_locality(
        form, PLSampler(seed=11), trials=4, route="construction"),
    "chain_rule": lambda form: law_chain_rule(
        form, PLSampler(seed=11), trials=2, route="construction",
        derivative_trials=1),
    "chain_rule oracle": lambda form: law_chain_rule(
        form, PLSampler(seed=11), trials=2, route="oracle",
        derivative_trials=1),
    "leibniz": lambda form: law_leibniz(form, PLSampler(seed=11), trials=2),
    "functional_identity": lambda form: law_functional_identity(
        form, PLSampler(seed=11), trials=2),
    "multivariable_chain": lambda form: law_multivariable_chain(
        form, PLSampler(seed=11), trials=2),
    "image_density": lambda form: law_image_density(
        form, PLSampler(seed=11), trials=2),
}

PINS = {
    ("measure_clarkson", 1.5):
        "248bd28db94a46b77c5cffd97d1e5ee6c5fb812cc2b4205eccd88c53e3f0229c",
    ("measure_clarkson", 3.0):
        "68750907b872eb4507352f4fc7ee13af1e7dbbb318d3c469c6dae0e82e992ba8",
    ("measure_triangle", 1.5):
        "21ff81c4c1fd7a2ed0fc20dbccb0dd81295008615760e35e826c4440869a78b4",
    ("measure_triangle", 3.0):
        "ad37e351e4fd9faacb018e67b03b8e780b0043f0e5a2c426d121f5e23c6f50a0",
    ("locality", 1.5):
        "4620da2937c97a20c0f5f62c9ca173227cef4b7c6bf9f9855ca8c9beb472cf49",
    ("locality", 3.0):
        "34ec09273ed24e3dfd4640451364687a3fbe95b072b90cbfa1c855fa62dc7b93",
    ("chain_rule", 1.5):
        "931b5a2abf3ec29b415cf100a28336de917eed719d75a9fdc8d7c0f0750f6f20",
    ("chain_rule", 3.0):
        "7bfe55ce92c21f944da2cef63372a07ce74578975dafa2b1b37ad4c7b9c30f9e",
}

ORACLE_PINS = {
    ("chain_rule oracle", 1.5):
        "e67826a100c8adb604da674f970226dc0a0bfa9e1f644e56226d46fca04f2edb",
    ("chain_rule oracle", 3.0):
        "b01559588afa225ef0105771e7771874898ad556e78a560010d4984157ecd8aa",
    ("leibniz", 1.5):
        "9b1c8799a0c5097f757e6829e2b6a1c46033e8230cb54c89118fb3188d962397",
    ("leibniz", 3.0):
        "e55b631b5f906741757d13a5b1ea790450298090b9321c596bc50c285005b81b",
    ("functional_identity", 1.5):
        "4c17b54b1352800d7875aa96bf7a86f98cf0fe5ed900c2a845d7dcc075b9b57f",
    ("functional_identity", 3.0):
        "aae183c5464b7f576ffc694b84e0f7e8d3ae51a980174dfaa0e25b5753a9a259",
    ("multivariable_chain", 1.5):
        "42025df3a6b022c941211e181de6844d3b8922b6a7f21161329e1713e02a580e",
    ("multivariable_chain", 3.0):
        "40edc4aff13384475c585d1fe3546669e8e7fa9a26ee68fc322472661cd75e30",
    ("image_density", 1.5):
        "bcbd535745633df714dda60528b0e3e2e3024838476bdfecc30d61e8a72ca774",
    ("image_density", 3.0):
        "9101406ed996866c7e4f9be76e0e0b3d67bbeeb0ba65969a087046e88d79803e",
}


@pytest.mark.parametrize("law,p", sorted(PINS))
def test_construction_law_report_matches_pinned_hash(law, p):
    rep = CALLS[law](PLIntervalForm(p))
    got = hashlib.sha256(repr(rep).encode()).hexdigest()
    assert got == PINS[law, p], f"{law} at p={p:g}: report changed: {rep}"


@pytest.mark.parametrize("law,p", sorted(ORACLE_PINS))
def test_oracle_law_report_matches_pinned_hash(law, p):
    rep = CALLS[law](PLIntervalForm(p))
    got = hashlib.sha256(repr(rep).encode()).hexdigest()
    assert got == ORACLE_PINS[law, p], \
        f"{law} at p={p:g}: report changed: {rep}"


def _reflection_gap():
    f, g = PLSampler(seed=11).pl_pair(7)
    lo, hi = g.value_range()
    return reflection_gap(PLIntervalForm(2.0), f, g, lo + 0.4 * (hi - lo),
                          LAW_SCHEDULE)


def _outer_measure_lb():
    target = IntervalSet([(0.1, 0.25), (0.4, 0.55), (0.8, 0.95)])
    return outer_measure_lb(PLIntervalForm(3.0), PLSampler(seed=11).pl(10),
                            target, sched=LAW_SCHEDULE)


def _fold_identity():
    phi = PLMap([-4.0, -1.0, 1.0, 4.0], [-5.0, 1.0, -1.0, 0.5])
    phi = PLMap(phi.breakpoints, phi.values - phi.evaluate(0.0))
    return check_fold_identity(PLIntervalForm(1.5), PLSampler(seed=11).pl(9),
                               phi, [-4.0, -1.0, 1.0, 4.0])


RESULTS = {
    "reflection_gap": (
        _reflection_gap,
        "105a718e0989c6cf2e55959272678f109f27d9acc3d3a1e3969a47dd16d4cea9"),
    "outer_measure_lb": (
        _outer_measure_lb,
        "557fab8d4a0ea4fe16d2533a9ba5f34b333ba6e2a73fe56e2d2c15e248cd90a0"),
    "check_fold_identity": (
        _fold_identity,
        "2e23d1de262e7879daf03277d5dbdfded700d472c7c84c0dd7c2d982e504f4e4"),
}


@pytest.mark.parametrize("name", sorted(RESULTS))
def test_fold_result_matches_pinned_hash(name):
    call, digest = RESULTS[name]
    got = call()
    assert hashlib.sha256(repr(got).encode()).hexdigest() == digest, \
        f"{name} changed: {got!r}"
