"""The explicit representation-model protocol behind training and serving.

NMCDR's forward factors into ``encode_representations`` (stages 0/1 — the
per-user encoder outputs) and ``match_representations`` (stages 2–4 —
matching and complementing).  This module promotes the split from an
informal convention probed with ``hasattr`` into a declared protocol:

* :class:`~repro.nn.ModelCapabilities` (re-exported here) is the flag set a
  model returns from ``capabilities()``; every consumer — the trainer, the
  sharded executor, the training engine and :mod:`repro.serve` — branches
  on those flags instead of probing method names.
* :class:`RepresentationModel` is the structural type of a model that
  declares ``encode_match_split``: the serving tier builds its persistent
  representation store from ``encode_representations`` +
  ``match_representations`` and scores store rows through ``score_pairs``.

A model that sets a capability flag without implementing the corresponding
methods fails loudly at the first call site — the protocol is a contract,
not a runtime fallback.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

import numpy as np

from ..nn import ModelCapabilities

__all__ = ["ModelCapabilities", "RepresentationModel"]


@runtime_checkable
class RepresentationModel(Protocol):
    """A model whose forward factors through the encode/match boundary.

    ``encode_representations`` returns per-domain tables carrying at least
    ``user_g1`` (the per-user encoder outputs) and ``items``;
    ``match_representations`` evolves them through the matching stages,
    adding ``user_g3`` (the matching-module output — the cold-start serving
    path) and ``user_g4`` (the complemented head input).  ``score_pairs``
    runs the domain's prediction head over already-gathered representation
    rows, which is how the serving scorer turns store rows into
    probabilities without a model forward.
    """

    def capabilities(self) -> ModelCapabilities: ...

    def encode_representations(
        self,
        plan: Optional[object] = None,
        *,
        keys: Optional[tuple] = None,
    ) -> Dict[str, dict]: ...

    def match_representations(
        self,
        reps: Dict[str, dict],
        plan: Optional[object] = None,
    ) -> Dict[str, dict]: ...

    def score_pairs(
        self, domain_key: str, user_rows: np.ndarray, item_rows: np.ndarray
    ) -> np.ndarray: ...
