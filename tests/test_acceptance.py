"""Acceptance gate: every claim of :mod:`qlqg.validate` at full scale.

The claims registry holds the checks and their full-scale sizes, seeds,
tolerances and wall-clock budgets; this module only runs each row.  Each
test prints one PASS/FAIL line (visible under ``pytest -s``) with the
measured figure and wall time, so a green run certifies both the
numbers and the advertised runtimes.
"""

import pytest

from qlqg.validate import CLAIMS

FILTER_RELAXATION = next(c for c in CLAIMS if c.name == "filter-relaxation")


def _gate(claim, kwargs, budget):
    result = claim.run(kwargs, budget=budget)
    print(f"\n{result.line()}")
    assert result.passed, result.detail


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.name for c in CLAIMS])
def test_claim(claim):
    _gate(claim, claim.full, claim.budget)


# filter-relaxation joins two facts on one path; each is also gated on
# its own, so a failure names the fact that broke.
def test_stationary_dispersions():
    _gate(FILTER_RELAXATION, {**FILTER_RELAXATION.full, "saturation": False},
          FILTER_RELAXATION.budget)


def test_uncertainty_saturation():
    _gate(FILTER_RELAXATION, {**FILTER_RELAXATION.full, "dispersions": False}, None)
