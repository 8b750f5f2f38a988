"""On-demand provenance: explain / why-not / rollback suggestions.

Nothing is captured while solving; every answer is reconstructed from the
exported relations when asked (docs/PROVENANCE.md):

* **Reconstruction** — :func:`repro.engines.explain.explain` finds a
  minimum-height proof tree of a present tuple; :func:`whynot` computes
  the failed-derivation frontier of an *absent* tuple.
* **Suggestions** — :func:`suggest_rollbacks` enumerates verified
  input-fact edit sets that make an undesired derived tuple disappear.
"""

from .rollback import RollbackSuggestion, suggest_rollbacks
from .whynot import MissingPremise, RuleFrontier, WhyNotReport, whynot

__all__ = [
    "MissingPremise",
    "RollbackSuggestion",
    "RuleFrontier",
    "WhyNotReport",
    "suggest_rollbacks",
    "whynot",
]
