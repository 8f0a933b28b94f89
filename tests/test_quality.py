"""A floor under the design quality of the seed-0 reference runs.

Each reference run's final design goes through its density's truth map (the
Rosenblatt map, which sends an exact sample to a uniform one).  Its centered
L2 discrepancy (CL2) and its tail share, the share of coordinates below 0.01
or above 0.99, must stay at or below the values recorded here.  An exact
sample gives a tail share of 0.02 and a root-mean-square CL2 of
sqrt(((5/4)^p - (13/12)^p) / n): 0.060 for banana (n=109, p=2), 0.22 at
n=149, p=10 and 1.82 at n=241, p=30.

The bounds are the current values, rounded up in the third significant
digit.  They record today's quality, defects included, and do not claim it
is good: a change that makes one of these designs worse fails here even
after its digests are re-pinned.  A design change that lands through the
quality gate (paired per-seed differences over many seeds, see the ROADMAP)
resets the bounds to its own seed-0 values.  A bound may rise only where the
gate reads that config no worse on that metric, since one seed's value can
move against the many-seed mean.  The runs are the session fixtures the
digest pins already build.
"""

import math

import pytest

from medsampler.cli import _truth_scores
from medsampler.density import make_ar1_normal, make_banana

FLOORS = [
    # fixture, density, CL2 bound, tail-share bound
    ("banana_default", make_banana, 0.0523, 0.0597),
    ("p10_correlated", lambda: make_ar1_normal(10, 0.9, 0.125), 0.714, 0.192),
    ("p30_run", lambda: make_ar1_normal(30, 0.9 ** math.log(30), 0.125), 13.3, 0.446),
]


@pytest.mark.parametrize(
    "fixture, make, cl2_bound, tail_bound", FLOORS, ids=[f[0] for f in FLOORS]
)
def test_reference_design_quality_floor(request, fixture, make, cl2_bound, tail_bound):
    design = request.getfixturevalue(fixture)[0]
    _, cl2, _, tail, _ = _truth_scores(make(), design.points)
    assert cl2 <= cl2_bound
    assert tail <= tail_bound
