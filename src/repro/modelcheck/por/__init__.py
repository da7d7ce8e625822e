"""Partial-order reduction over interleaved transitions (paper §4).

Plankton's headline scalability comes from exploring one representative per
equivalence class of commuting transitions instead of every interleaving.
This subpackage is the reusable home of that machinery:

* :mod:`~repro.modelcheck.por.independence` — the RPVP decision-independence
  partition (SPVP deliveries commute by the receiver masks of
  :func:`~repro.protocols.spvp.space_for`);
* :mod:`~repro.modelcheck.por.ample` — per-state ample-set selection with
  the C0–C3 provisos for the SPVP transient exploration;
* :mod:`~repro.modelcheck.por.sleep` — sleep sets killing the commuting
  permutations ample sets miss, with the state-matching requeue rule;
* :mod:`~repro.modelcheck.por.stats` — the reduction ledger surfaced
  through exploration results and the benchmark rows.

The transient explorer (:mod:`repro.transient.explorer`) wires these behind
``TransientOptions.por``; the RPVP verifier pipeline shares the statistics
ledger and the independence partition.
"""

from repro import _exports

#: Public name -> the module that defines it (imported on first access).
_ORIGINS = {
    "AmpleChoice": "repro.modelcheck.por.ample",
    "AmpleSelector": "repro.modelcheck.por.ample",
    "node_independence_groups": "repro.modelcheck.por.independence",
    "EMPTY_SLEEP": "repro.modelcheck.por.sleep",
    "merged_sleep_for_requeue": "repro.modelcheck.por.sleep",
    "successor_sleep": "repro.modelcheck.por.sleep",
    "ReductionStatistics": "repro.modelcheck.por.stats",
}

__all__ = list(_ORIGINS)
__getattr__ = _exports(__name__, _ORIGINS)
