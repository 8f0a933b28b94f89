"""Golden ledger digests of the reference runs, and the banana report bytes.

The banana and ar1 p=10 digests are those of the seed-0 reference runs
recorded with the benchmark (``perfbench/digests.json``); the p=30 one is the
criterion-1 run's.  Any change to an evaluated point or value changes them; a
change that does so on purpose must say so and pin the new values.  All three
runs are session fixtures that other tests build anyway.

The banana follow-up (criterion 3's fixture) is pinned by equality with the
one-chain-at-a-time oracle of ``test_baselines``, not by a hash: the sha256
of its ``samples.tobytes()`` read ``326d921a...`` at one BLAS thread and
``6b5ed527...`` at two, because the 654-point surrogate fit's solves
differ in their last bits between the two.
"""

import hashlib
import json

import numpy as np
from test_baselines import reference_followup

from medsampler.cli import _report_dict
from medsampler.fileio import ledger_digest
from medsampler.surrogate import default_theta, fit

# make_banana(), RunConfig(seed=0)
BANANA_DIGEST = "e3d31134b7b4a103292c77f4e1ab900a226058333f4bd910b5f014df31b2bd91"
# sha256 of report.json of make_banana(), RunConfig(seed=0)
BANANA_REPORT_SHA256 = "2b5aa4d319d135add3c4150288ab01eaf8dbfbf78c344aa125f46a96653a5ca7"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_DIGEST = "44c295ddcad2b3420e27700290fca8e82aaec2df77f6e0d821b5e1501d71ae5c"
# make_ar1_normal(30, 0.9 ** log(30), 0.125), RunConfig(seed=0)
AR1_P30_DIGEST = "1b690699629e2154e3e71843da4a5daf2f8ae8aa0f5645f060389e565210c4ec"


def test_banana_default_digest(banana_default):
    _, report, _ = banana_default
    assert ledger_digest(report.ledger) == BANANA_DIGEST


def test_banana_default_report_bytes(banana_default):
    # report.json as ``write_json`` writes it: every stage metric and the
    # config echo, to the last bit.  Report bytes do not depend on the BLAS
    # thread count (test_cli checks the ar1 p=10 config at one and two).
    _, report, _ = banana_default
    text = json.dumps(_report_dict(report), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BANANA_REPORT_SHA256


def test_ar1_p10_digest(p10_correlated):
    _, report, _ = p10_correlated
    assert ledger_digest(report.ledger) == AR1_P10_DIGEST


def test_ar1_p30_digest(p30_run):
    _, report, _ = p30_run
    assert ledger_digest(report.ledger) == AR1_P30_DIGEST


def test_banana_followup_matches_oracle(banana_followup, banana_default):
    # the fixture's surrogate and design, N = 10 000, seed 0
    result, _ = banana_followup
    design, report, _ = banana_default
    x = report.ledger.points()
    surrogate = fit(x, report.ledger.logf_values(), default_theta(x))
    samples, chain_ids, lengths = reference_followup(design, surrogate, 10_000, seed=0)
    assert np.array_equal(result.samples, samples)
    assert np.array_equal(result.chain_ids, chain_ids)
    assert np.array_equal(result.lengths, lengths)
