"""Planted faults: each patch breaks one step that a suite run relies on,
and the run must notice it, by a non-zero exit or an InvariantError.

A run-time check that is added gets its fault added to the table.  See
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4) (1978).
"""

import itertools
import time

import pytest

import trifactor.factorisation as factorisation
import trifactor.verifier as verifier
from trifactor.factorisation import OneFactor
from trifactor.field import FiniteField, InvariantError
from trifactor.hypergraph import BergeSearchResult
from trifactor.verifier import SuiteConfig, json_text, run_suite

CONFIG = SuiteConfig(qs=(5, 8, 11, 17), hb1f_full_qs=(5, 8), trace_scan_degrees=(3, 5))
_verify_partition = verifier.verify_partition
_build_factorisation = verifier.build_factorisation
_image = factorisation.Factorisation.image


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


def _neighbouring_image(fact, perm, i):
    """Factorisation.image, right while N is listed and one factor on after."""
    j = _image(fact, perm, i)
    return (j + 1) % len(fact.factors) if "symmetry" in vars(fact) else j


# (object, attribute, replacement, exit code or InvariantError message)
FAULTS = {
    "connected always": (verifier, "blocks_connected", lambda block, f: True, 1),
    "connected never": (verifier, "is_connected", lambda h: False, 1),
    "no Berge cycle": (verifier, "find_hamilton_berge_cycle",
                       lambda h, budget: BergeSearchResult("none"), 1),
    "Berge timeout": (verifier, "find_hamilton_berge_cycle",
                      lambda h, budget: BergeSearchResult("timeout"), 2),
    "identity isomorphism": (verifier, "find_isomorphism",
                             lambda h1, h2: list(range(h1.n)), "fails its replay"),
    "no isomorphism": (verifier, "find_isomorphism", lambda h1, h2: None, 1),
    "trace 1": (FiniteField, "trace", lambda self, a: 1,
                "q=8: overlap histogram \\{2: 27\\} is not the fixed-point count's"),
    "duplicate edge": (verifier, "verify_partition", _one_duplicate,
                       "do not partition the triples: 1 duplicated"),
    "twins both kept": (factorisation, "canonical_label", lambda ctx, a, b: (a, b),
                        "q=5: 40 edges of 20 do not partition the triples: "
                        "20 duplicated"),
    "edge swap": (verifier, "build_factorisation", _edge_swapped,
                  "factors \\[1, 2\\] not covering each point once"),
    "empty histogram": (verifier, "overlap_distribution", lambda fact: {},
                        "does not sum to"),
    "stuck at 2": (verifier, "block_overlap", lambda block, f: 2,
                   "q=11: overlap histogram \\{2: 54\\} is not the fixed-point count's"),
    "Frobenius the identity": (FiniteField, "frobenius", lambda self, a: a,
                               "18 distinct elements, not 54"),
    "wrong factor image": (factorisation.Factorisation, "image", _neighbouring_image,
                           "isomorphism of pair \\(0, 1\\) fails its replay"),
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


def test_a_wrong_factor_image_fails_the_hb1f_move_replay(monkeypatch):
    # U1F meets this fault first in a suite run; HB1F's own replay sees it too
    fact = _build_factorisation(verifier.field_for(8))
    monkeypatch.setattr(factorisation.Factorisation, "image", _neighbouring_image)
    with pytest.raises(InvariantError, match="does not move factor"):
        verifier.check_hb1f(fact, "full")


def test_trace_1_fails_the_scan_degree_bound(monkeypatch):
    # the q=8 overlap histogram meets this fault first in a suite run; the
    # trace scan's own degree bound sees it too
    monkeypatch.setattr(FiniteField, "trace", lambda self, a: 1)
    with pytest.raises(InvariantError, match="30 roots exceed the degree bound 24"):
        verifier.char2_uniformity_scan(5)


def test_the_report_does_not_depend_on_the_clock(monkeypatch):
    # a clock that jumps 0.25 s at every read changes no byte of the report
    expected = json_text(run_suite(CONFIG).to_dict())
    reads = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: next(reads) * 0.25)
    assert json_text(run_suite(CONFIG).to_dict()) == expected
    assert next(reads) > 0
