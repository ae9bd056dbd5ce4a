"""The sampler's draws as a stream: recorded digests pin every bit of the
first 20 draws of each kind at three seeds, so a rewrite of the scalar-draw
loop cannot shift a draw unnoticed."""

import hashlib

import numpy as np
import pytest

from penergy.sampler import PLSampler


def _fn_bytes(f):
    return f.breakpoints.tobytes() + f.values.tobytes()


DRAWS = {
    "pl": lambda s, i: _fn_bytes(s.pl(i)),
    "nonzero_pl": lambda s, i: _fn_bytes(s.nonzero_pl(i)),
    "pl_pair": lambda s, i: b"".join(_fn_bytes(f) for f in s.pl_pair(i)),
    "slope_floor_pl": lambda s, i: _fn_bytes(s.with_slope_floor(0.5).pl(i)),
    "disjoint_support_pair": lambda s, i: b"".join(
        _fn_bytes(f) for f in s.disjoint_support_pair(i)),
    "interval_union": lambda s, i: np.array(
        s.interval_union(i).components).tobytes(),
}

# sha256 over the bytes of indices 0-19, recorded before the draw loop
# worked on Python floats
STREAM_SHA256 = {
    ("pl", 1): "6f241a10255423128ea3c9e733ee1ff3ddf5c2aeff5fc4abe8e7dcd464a2b0e3",
    ("pl", 7): "d94bf261938e762f4851fa9dd67a0b140fa49758bea85929e4014dde302be376",
    ("pl", 2026): "5af23ce4b0487e11a2606ac16f337a7386ac3cd7d3d0056fa4dbcfeb86e8cb46",
    ("nonzero_pl", 1): "32d7427805fede0f327efd0addb0f4735c876cf7c7079f184a8520f6d3bdde95",
    ("nonzero_pl", 7): "7b246bdf08a3e3b98eed8bf5a1eef100c471be780f4328ab5b1a89d35eafea68",
    ("nonzero_pl", 2026): "3bfecb406c907b38f23941d5c71111378de89c5c18d48e98e879a7939f8d5242",
    ("pl_pair", 1): "54f25474fed489dfad1af1a9eb122e81ccdd8780cc82f0782c938b6222a12cab",
    ("pl_pair", 7): "9e1be3d134ac16ac7f4023a64b863485f4526dadfc01c4a9ade282929cf63cab",
    ("pl_pair", 2026): "4a94e39fce5a44795a49d02cf8c61efdeb0fa0ba5899b53cd09ab2df50a10311",
    ("slope_floor_pl", 1): "147b3274364676b98a9bde403b3804a9d9b08c3e085744cc19cfdfc0a1b85568",
    ("slope_floor_pl", 7): "e0a8763bf6a2cd98622c19e373a813e648c7d1b8219d30f95509d42ca5189e60",
    ("slope_floor_pl", 2026): "d478c83ed87b95ed8e949a93ffb95e62b6aa39ec1e9acdbf762e450e620c2cc9",
    ("disjoint_support_pair", 1): "ef73d94a67af15241dbf615406130d421ddfa04cefc9b54a219cfe2790cfcf34",
    ("disjoint_support_pair", 7): "d5f3822898e89e295db60cc1a45f77df3520428a970d7e528e13cb0e5dbb4916",
    ("disjoint_support_pair", 2026): "d8c99eaecf33abe11c4a03d3fb5994bc4ec58e495ef6faedc7159c6760b57f47",
    ("interval_union", 1): "fbff84053bd0946515a89fc4570ba64723a1e9ec577d40cbf63a4067d8c27c1f",
    ("interval_union", 7): "1ce74755f070b510757bb0c8b2928f9b023ea0e4bdd8fed60d5e0f88aca6ff38",
    ("interval_union", 2026): "908cba406b3e594c5df6a7a9684c3d18676a2a3530402decf7629a82c46ce99d",
}


@pytest.mark.parametrize("name, seed", sorted(STREAM_SHA256))
def test_draw_stream_is_pinned(name, seed):
    sampler = PLSampler(seed)
    digest = hashlib.sha256()
    for index in range(20):
        digest.update(DRAWS[name](sampler, index))
    assert digest.hexdigest() == STREAM_SHA256[name, seed]


def test_max_breaks_below_three_rejected():
    # a draw picks 1 to max_breaks - 2 interior breakpoints, so 2 leaves
    # no admissible count
    with pytest.raises(ValueError, match="max_breaks"):
        PLSampler(1, max_breaks=2)


def test_max_breaks_three_draws_one_interior_breakpoint():
    sampler = PLSampler(1, max_breaks=3)
    for index in range(10):
        assert sampler.pl(index).breakpoints.size == 3
    assert sampler.nonzero_pl(0).piece_count >= 1
