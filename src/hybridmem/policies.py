"""Page-placement policies deciding which NVM pages move to DRAM.

A policy scores a page when one of its NVM requests completes and
promotes it when the score passes the migration threshold. `all` promotes
every page, like a conventional DRAM cache, so it scores nothing and reads
neither the threshold nor the page statistics. One flag says which kind a
policy is (`scores_pages`, off only for `all`); the simulator keeps the
threshold and the page statistics only for a policy that scores. The
scoring policies score from the stat store, aggregating over every
application's entry for the page, so shared pages are judged by their
combined benefit.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .ubm import StatStore, ThresholdController, page_stall_reduction

PROMOTE = "promote"
STAY = "stay"


class PolicyDecision(NamedTuple):
    page_id: int
    action: str
    score: float = 0.0


# A `PolicyDecision` built without its Python-level `__new__`, at a third of the cost.
_decision = partial(tuple.__new__, PolicyDecision)


class PlacementPolicy:
    # `bench/spans.py` times `decide` on this class and on each subclass
    # that defines its own, by replacing it there; keep it a method.
    scores_pages = True

    def score(self, page_id: int, store: StatStore, ctx) -> float:
        raise NotImplementedError

    def decide(self, page_id: int, store: StatStore, ctx,
               threshold: ThresholdController) -> PolicyDecision:
        s = self.score(page_id, store, ctx)   # `observe_score` counts it for the step
        return _decision((page_id, PROMOTE if threshold.observe_score(s) else STAY, s))


class AllPolicy(PlacementPolicy):
    """Insert every page touched in NVM, like a conventional cache."""

    name = "all"
    scores_pages = False

    def decide(self, page_id, store, ctx, threshold):
        return _decision((page_id, PROMOTE, 1.0))


class FreqPolicy(PlacementPolicy):
    """Promote pages accessed often while NVM-resident."""

    name = "freq"

    def score(self, page_id, store, ctx):
        total = 0
        for e in store.entries_for_page(page_id):
            total += e.access_count
        return float(total)


class RblaPolicy(PlacementPolicy):
    """Promote pages with many NVM row-buffer misses."""

    name = "rbla"

    def score(self, page_id, store, ctx):
        total = 0
        for e in store.entries_for_page(page_id):
            total += e.read_misses + e.write_misses
        return float(total)


class StallTimePolicy(PlacementPolicy):
    """Promote by estimated stall-time reduction, ignoring sensitivity."""

    name = "ubm-st"

    def score(self, page_id, store, ctx):
        return page_stall_reduction(store.entries_for_page(page_id),
                                    ctx.latency_gaps)


class UtilityPolicy(PlacementPolicy):
    """Full utility: stall-time reduction weighted by each application's
    sensitivity, summed across the applications sharing the page."""

    name = "ubm"

    def score(self, page_id, store, ctx):
        return page_stall_reduction(store.entries_for_page(page_id),
                                    ctx.latency_gaps, ctx.sensitivities)


# Each policy is declared once, by its class: in definition order, which
# POLICY_NAMES keeps.
_POLICIES = {cls.name: cls for cls in PlacementPolicy.__subclasses__()}
POLICY_NAMES = tuple(_POLICIES)


def make_policy(kind: str) -> PlacementPolicy:
    try:
        return _POLICIES[kind]()
    except KeyError:
        raise ValueError(f"unknown policy {kind!r}; pick one of {POLICY_NAMES}") from None
