"""Golden ledger digests of the reference runs, and their report bytes.

The banana and ar1 p=10 digests are those of the seed-0 reference runs
recorded with the benchmark (``perfbench/digests.json``); the p=30 one is the
criterion-1 run's, and the whitening-off ar1 p=10 one criterion 5's.  Any
change to an evaluated point or value changes them; a change that does so on
purpose must say so and pin the new values.  All four runs are session
fixtures that other tests build anyway.

The two chain digests pin the budget-matched Metropolis baselines that
``bench`` and the benchmark's ar1 p=10 comparison run (start 0.5, seed 0):
retuning the chain changes them, and must re-pin them on purpose.

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

from medsampler.baselines import ChainSpec, adaptive_metropolis
from medsampler.cli import _report_dict
from medsampler.density import EvaluationLedger, make_ar1_normal, make_banana
from medsampler.fileio import ledger_digest
from medsampler.surrogate import default_theta, fit

# make_banana(), RunConfig(seed=0)
BANANA_DIGEST = "e3d31134b7b4a103292c77f4e1ab900a226058333f4bd910b5f014df31b2bd91"
# sha256 of report.json of make_banana(), RunConfig(seed=0)
BANANA_REPORT_SHA256 = "2b5aa4d319d135add3c4150288ab01eaf8dbfbf78c344aa125f46a96653a5ca7"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_DIGEST = "44c295ddcad2b3420e27700290fca8e82aaec2df77f6e0d821b5e1501d71ae5c"
# sha256 of report.json of make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_REPORT_SHA256 = "1cc117aa5bfe3ee489857081a1287bb72ca5e92a4b2b9af91c1209f7197ba5f3"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0, whitening=False)
AR1_P10_UNWHITENED_DIGEST = "7f8114eb8dc23475634f06f00f4e9495af8614c027f155bf12a2413ade97e97c"
# make_ar1_normal(30, 0.9 ** log(30), 0.125), RunConfig(seed=0)
AR1_P30_DIGEST = "1b690699629e2154e3e71843da4a5daf2f8ae8aa0f5645f060389e565210c4ec"
# adaptive_metropolis(make_banana(), start 0.5, seed 0, eval_budget=654)
BANANA_CHAIN_DIGEST = "6d96594650e989746edf8503513bc33d235c132b959d9c34091a62ac40a091a1"
# adaptive_metropolis(make_ar1_normal(10, 0.9, 0.125), start 0.5, seed 0, eval_budget=1937)
AR1_P10_CHAIN_DIGEST = "2b489bffffad7b6ac3ac1798f37e993e7935a2c39f8b758f1bdfa6dc7f017398"


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


def test_ar1_p10_report_bytes(p10_correlated):
    # the same bytes for the p=10 run: twelve stages under a 10 x 10 whitening
    _, report, _ = p10_correlated
    text = json.dumps(_report_dict(report), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == AR1_P10_REPORT_SHA256


def test_ar1_p10_unwhitened_digest(p10_correlated_unwhitened):
    # the identity metric goes through the same whitening product as any other
    _, report, _ = p10_correlated_unwhitened
    assert ledger_digest(report.ledger) == AR1_P10_UNWHITENED_DIGEST


def test_ar1_p30_digest(p30_run):
    _, report, _ = p30_run
    assert ledger_digest(report.ledger) == AR1_P30_DIGEST


def chain_digest(model, budget):
    ledger = EvaluationLedger()
    spec = ChainSpec(start=np.full(model.p, 0.5), length=1, seed=0)
    result = adaptive_metropolis(model, spec, ledger, eval_budget=budget)
    assert result.evaluations == ledger.count == budget
    return ledger_digest(ledger)


def test_banana_chain_digest():
    assert chain_digest(make_banana(), 654) == BANANA_CHAIN_DIGEST


def test_ar1_p10_chain_digest():
    assert chain_digest(make_ar1_normal(10, 0.9, 0.125), 1937) == AR1_P10_CHAIN_DIGEST


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
