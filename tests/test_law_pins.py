"""Construction-route law reports pinned across commits.

``tests/test_csv_pins.py`` pins CLI bytes, and ``check-laws`` runs on the
oracle route, so nothing there covers the fold limits behind the
construction route of a law.  These hashes of ``repr(LawReport)`` were
recorded from an earlier build; every slack, tolerance and worst-case
witness of these small calls must keep each bit.
"""

import hashlib

import pytest

from penergy.forms import PLIntervalForm
from penergy.laws import (dyadic_sets, law_chain_rule, law_locality,
                          law_measure_clarkson, law_measure_triangle)
from penergy.sampler import PLSampler

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
}

PINS = {
    ("measure_clarkson", 1.5):
        "301435c37ce6570e8c636b4dacd8e0d58ee80f022a20e942a7851a3fdb463c3c",
    ("measure_clarkson", 3.0):
        "8423c8b2585741e6570d8ebec4a8f9a938f002a172e7ec273ec03f30471e9061",
    ("measure_triangle", 1.5):
        "c2b5174634c225cb4d9d395e6604f2e4be18718cb24a87cdb3b77e0b95215352",
    ("measure_triangle", 3.0):
        "7b4d3efa241ff8f6d1fe2ddcc31ff5e294256edbfacb5204cc397f7150085cdc",
    ("locality", 1.5):
        "45b7def3234501b57f46e06c3e94b79b2927c982995018d4a0aaef143e626470",
    ("locality", 3.0):
        "3b57406c2a251b3a346cf8d27306d6629c5099ddb6145ee26f7e233036e49157",
    ("chain_rule", 1.5):
        "931b5a2abf3ec29b415cf100a28336de917eed719d75a9fdc8d7c0f0750f6f20",
    ("chain_rule", 3.0):
        "599882dd1463721262348758690483203235f06184cc89c6f61ff682e65898f2",
}


@pytest.mark.parametrize("law,p", sorted(PINS))
def test_construction_law_report_matches_pinned_hash(law, p):
    rep = CALLS[law](PLIntervalForm(p))
    got = hashlib.sha256(repr(rep).encode()).hexdigest()
    assert got == PINS[law, p], f"{law} at p={p:g}: report changed: {rep}"
