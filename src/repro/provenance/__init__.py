"""On-demand provenance: explain / why-not / rollback suggestions.

The subsystem has three layers (docs/PROVENANCE.md):

* **Capture** — :class:`ProvenanceStore` records a minimal ``(rule_id,
  height)`` annotation per derived tuple at emit time, in every engine,
  when enabled via ``SolverConfig.provenance``.
* **Reconstruction** — :func:`repro.engines.explain.explain` turns
  annotations into height-guided proof trees; :func:`whynot` computes the
  failed-derivation frontier of an *absent* tuple.
* **Suggestions** — :func:`suggest_rollbacks` enumerates verified
  input-fact edit sets that make an undesired derived tuple disappear.
"""

from .rollback import RollbackSuggestion, suggest_rollbacks
from .store import ProvenanceStore
from .whynot import MissingPremise, RuleFrontier, WhyNotReport, whynot

__all__ = [
    "MissingPremise",
    "ProvenanceStore",
    "RollbackSuggestion",
    "RuleFrontier",
    "WhyNotReport",
    "suggest_rollbacks",
    "whynot",
]
