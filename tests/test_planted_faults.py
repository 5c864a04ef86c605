"""Planted faults: each patch breaks one step that a suite run relies on,
and the run must notice it, by a non-zero exit or an InvariantError.

A run-time check that is added gets its fault added to the table.  See
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4) (1978).  A pair_overlap stuck at 2 is not in the table: the mean
overlap is exactly 2, so both histogram sums still hold and the run exits 0.
"""

import pytest

import trifactor.factorisation as factorisation
import trifactor.verifier as verifier
from trifactor.factorisation import OneFactor
from trifactor.field import FiniteField, InvariantError
from trifactor.hypergraph import BergeSearchResult
from trifactor.verifier import SuiteConfig, run_suite

CONFIG = SuiteConfig(qs=(5, 8, 11, 17), hb1f_full_qs=(5, 8), trace_scan_degrees=(3, 5))
_verify_partition = verifier.verify_partition
_build_factorisation = verifier.build_factorisation


def _one_duplicate(fact):
    report = _verify_partition(fact)
    report.duplicates.append(fact.factors[0].edges[0])
    return report


def _edge_swapped(ctx):
    """The factorisation with the first edges of factors 1 and 2 traded:
    every triple still covered once, but neither factor a 1-factor."""
    fact = _build_factorisation(ctx)
    one, two = fact.factors[1], fact.factors[2]
    fact.factors[1] = OneFactor(one.label, two.points[:3] + one.points[3:])
    fact.factors[2] = OneFactor(two.label, one.points[:3] + two.points[3:])
    return fact


# (object, attribute, replacement, exit code or InvariantError message)
FAULTS = {
    "connected always": (verifier, "is_connected", lambda h: True, 1),
    "connected never": (verifier, "is_connected", lambda h: False, 1),
    "no Berge cycle": (verifier, "find_hamilton_berge_cycle",
                       lambda h, budget: BergeSearchResult("none"), 1),
    "Berge timeout": (verifier, "find_hamilton_berge_cycle",
                      lambda h, budget: BergeSearchResult("timeout"), 2),
    "identity isomorphism": (verifier, "find_isomorphism",
                             lambda h1, h2: list(range(h1.n)), "fails its replay"),
    "no isomorphism": (verifier, "find_isomorphism", lambda h1, h2: None, 1),
    "trace 1": (FiniteField, "trace", lambda self, a: 1,
                "30 roots exceed the degree bound 24"),
    "duplicate edge": (verifier, "verify_partition", _one_duplicate,
                       "do not partition the triples: 1 duplicated"),
    "twins both kept": (factorisation, "canonical_label", lambda ctx, a, b: (a, b),
                        "q=5: 40 edges of 20 do not partition the triples: "
                        "20 duplicated"),
    "edge swap": (verifier, "build_factorisation", _edge_swapped,
                  "factors \\[1, 2\\] not covering each point once"),
    "empty histogram": (verifier, "overlap_distribution", lambda fact: {},
                        "does not sum to"),
    "Frobenius the identity": (FiniteField, "frobenius", lambda self, a: a,
                               "18 distinct elements, not 54"),
}


def test_the_config_runs_clean():
    assert run_suite(CONFIG).exit_code == 0


@pytest.mark.parametrize("fault", FAULTS)
def test_a_planted_fault_is_caught(monkeypatch, fault):
    target, name, replacement, caught = FAULTS[fault]
    monkeypatch.setattr(target, name, replacement)
    if isinstance(caught, str):
        with pytest.raises(InvariantError, match=caught):
            run_suite(CONFIG)
    else:
        assert run_suite(CONFIG).exit_code == caught
