"""Golden ledger digests of the reference runs, and their report bytes.

The banana and ar1 p=10 digests are those of the seed-0 reference runs that
the benchmark also runs; ``perfbench/digests.json`` still holds their values
from before pass 1 chose its regions by unit distance, until the benchmark is
re-pinned.  The p=30 one is the criterion-1 run's, and the whitening-off
ar1 p=10 one criterion 5's.  Any change to an evaluated point or value
changes them; a change that does so on purpose must say so and pin the new
values.  All four runs are session fixtures that other tests build anyway.

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
BANANA_DIGEST = "422dcd0c86b86628457ade3a815ab00f26b23dc1d2f8d91695e506ea61ef158c"
# sha256 of report.json of make_banana(), RunConfig(seed=0)
BANANA_REPORT_SHA256 = "f6f32930e943a0b859a0233e7d3b60ae684e989ddbf47061922fb3d3ca16539e"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_DIGEST = "495e1f5a17392fd418f4978459f47a090412300c05d62dd77394f6cdfaf6ff34"
# sha256 of report.json of make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0)
AR1_P10_REPORT_SHA256 = "74ddd6dff5be4387995766437791da0bc2af3ce97943bacd978a1dfea43a87c4"
# make_ar1_normal(10, 0.9, 0.125), RunConfig(seed=0, whitening=False)
AR1_P10_UNWHITENED_DIGEST = "7f8114eb8dc23475634f06f00f4e9495af8614c027f155bf12a2413ade97e97c"
# make_ar1_normal(30, 0.9 ** log(30), 0.125), RunConfig(seed=0)
AR1_P30_DIGEST = "793f1a86b668326ff41fda641108aca9a309c109ca114f4364a9ca11a1990dc2"
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
