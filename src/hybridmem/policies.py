"""Page-placement policies deciding which NVM pages move to DRAM.

A policy scores a page when one of its NVM requests completes and
promotes it when the score passes the migration threshold. `all` promotes
every page, like a conventional DRAM cache, so it reads neither the
threshold nor the page statistics; each policy declares which of the two it
uses (`uses_threshold`, `uses_page_stats`), and the simulator keeps only
what the policy reads. The other policies score from the stat store,
aggregating over every application's entry for the page, so shared pages
are judged by their combined benefit.
"""

from __future__ import annotations

from typing import NamedTuple

from .ubm import StatStore, gap_stall_reduction

PROMOTE = "promote"
STAY = "stay"


class PolicyDecision(NamedTuple):
    page_id: int
    action: str
    score: float = 0.0


class PlacementPolicy:
    # `bench/spans.py` times `decide` on this class and on each subclass
    # that defines its own, by replacing it there; keep it a method.
    uses_threshold = True
    uses_page_stats = True

    def score(self, page_id: int, store: StatStore, ctx) -> float:
        raise NotImplementedError

    def decide(self, page_id: int, store: StatStore, ctx, threshold: float) -> PolicyDecision:
        s = self.score(page_id, store, ctx)
        action = PROMOTE if s > threshold else STAY
        return PolicyDecision(page_id, action, s)


class AllPolicy(PlacementPolicy):
    """Insert every page touched in NVM, like a conventional cache."""

    name = "all"
    uses_threshold = False
    uses_page_stats = False

    def decide(self, page_id, store, ctx, threshold):
        return PolicyDecision(page_id, PROMOTE, 1.0)


class FreqPolicy(PlacementPolicy):
    """Promote pages accessed often while NVM-resident."""

    name = "freq"

    def score(self, page_id, store, ctx):
        return float(sum(e.access_count for e in store.entries_for_page(page_id)))


class RblaPolicy(PlacementPolicy):
    """Promote pages with many NVM row-buffer misses."""

    name = "rbla"

    def score(self, page_id, store, ctx):
        return float(sum(e.read_misses + e.write_misses
                         for e in store.entries_for_page(page_id)))


class StallTimePolicy(PlacementPolicy):
    """Promote by estimated stall-time reduction, ignoring sensitivity."""

    name = "ubm-st"

    def score(self, page_id, store, ctx):
        return sum(gap_stall_reduction(e, ctx.latency_gaps)
                   for e in store.entries_for_page(page_id))


class UtilityPolicy(PlacementPolicy):
    """Full utility: stall-time reduction weighted by each application's
    sensitivity, summed across the applications sharing the page."""

    name = "ubm"

    def score(self, page_id, store, ctx):
        return sum(gap_stall_reduction(e, ctx.latency_gaps)
                   * ctx.sensitivity(e.app_id)
                   for e in store.entries_for_page(page_id))


# Each policy is declared once, by its class: in definition order, which
# POLICY_NAMES keeps.
_POLICIES = {cls.name: cls for cls in PlacementPolicy.__subclasses__()}
POLICY_NAMES = tuple(_POLICIES)


def make_policy(kind: str) -> PlacementPolicy:
    try:
        return _POLICIES[kind]()
    except KeyError:
        raise ValueError(f"unknown policy {kind!r}; pick one of {POLICY_NAMES}") from None
