"""Golden ledger digests of the reference runs.

The banana and ar1 p=10 digests are those of the seed-0 reference runs
recorded with the benchmark (``perfbench/digests.json``); the p=30 one is the
criterion-1 run's.  Any change to an evaluated point or value changes them; a
change that does so on purpose must say so and pin the new values.  All three
runs are session fixtures that other tests build anyway.
"""

from medsampler.fileio import ledger_digest

# make_banana(), RunConfig(seed=0)
BANANA_DIGEST = "e3d31134b7b4a103292c77f4e1ab900a226058333f4bd910b5f014df31b2bd91"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_DIGEST = "44c295ddcad2b3420e27700290fca8e82aaec2df77f6e0d821b5e1501d71ae5c"
# make_ar1_normal(30, 0.9 ** log(30), 0.125), RunConfig(seed=0)
AR1_P30_DIGEST = "1b690699629e2154e3e71843da4a5daf2f8ae8aa0f5645f060389e565210c4ec"


def test_banana_default_digest(banana_default):
    _, report, _ = banana_default
    assert ledger_digest(report.ledger) == BANANA_DIGEST


def test_ar1_p10_digest(p10_correlated):
    _, report, _ = p10_correlated
    assert ledger_digest(report.ledger) == AR1_P10_DIGEST


def test_ar1_p30_digest(p30_run):
    _, report, _ = p30_run
    assert ledger_digest(report.ledger) == AR1_P30_DIGEST
