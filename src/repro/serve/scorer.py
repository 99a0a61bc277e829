"""Micro-batched exact top-K scoring over a representation store.

The :class:`Scorer` is the serving front end: it accepts
:class:`ScoreRequest` batches, gathers user/item rows from its
:class:`~repro.serve.store.RepresentationStore`, runs the model's
prediction head over micro-batches of (user, item) row pairs and returns
exact top-K slates.  Because the head invocation is the same one
``model.score`` runs on its evaluation cache, store-backed scoring is
bit-identical to full-model rescoring — gated in ``tests/test_serve.py``
(``TestScorerExactness``).

Two request paths:

* **warm** users (at least one training interaction in the requested
  domain) are scored from ``user_g4``, the complemented head input;
* **cold-start** users are routed through the matching module: their row
  comes from ``user_g3``, the inter/intra-matching output.  For edge-less
  users the complementing stage is the identity (``user_g4 == user_g3``),
  so the cold path is exact as well, and the response carries
  ``cold_start=True`` so callers can audit the routing.

Models without the ``encode_match_split`` capability (the non-graph
baselines) are served through a delegation path: the scorer micro-batches
their ``score(domain, users, items)`` evaluation interface instead, so one
front end serves every model in the registry.

Request-path robustness
-----------------------

The front end is bounded in both queue depth and latency:

* **Admission control** — ``queue_limit`` bounds how many requests one
  batch may admit; the excess is *shed* with a typed
  :class:`~repro.serve.health.ServeOverloadError` instead of queueing
  unboundedly.
* **Deadlines** — a request may carry ``deadline_ms`` (or inherit
  ``default_deadline_ms``); enforcement is cooperative at micro-batch
  granularity, so an expired request stops consuming the head after at
  most one more micro-batch and answers with a typed
  :class:`~repro.serve.health.DeadlineExceeded`.
* **Degradation ladder** — store staleness no longer has only two states.
  Per batch the scorer resolves a rung: ``fresh`` (store matches the live
  parameter version), ``stale`` (lag within ``max_staleness`` — served,
  flagged ``degraded="stale"``), ``cold_path`` (lag within
  ``hard_staleness`` — every user served from the matching-module output
  ``user_g3``, the conservative cross-domain row, flagged
  ``degraded="cold_path"``) and finally a typed
  :class:`~repro.serve.health.ServeUnavailableError`.  With no
  ``hard_staleness`` configured the ladder stops at the store's own
  :class:`~repro.serve.store.StaleRepresentationError`, the pre-existing
  contract.

Every rung and every typed failure is counted on the scorer's
:class:`~repro.serve.health.ServeHealth`; the ``scorer_slow`` fault point
(:func:`repro.core.faults.scorer_chunk`) injects latency into the
micro-batch loop so the deadline machinery is testable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import faults
from ..core.task import DOMAIN_KEYS
from .health import (
    DeadlineExceeded,
    ErrorResponse,
    ServeHealth,
    ServeOverloadError,
    ServeUnavailableError,
)
from .store import RepresentationStore, StaleRepresentationError, StoreError

__all__ = ["ScoreRequest", "ScoreResponse", "Scorer", "exact_top_k"]


def exact_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest scores, exactly and deterministically.

    Heap-free: one ``np.partition`` to find the k-th value, then a stable
    descending sort of only the candidates at or above it.  Ties break
    toward the lowest index — the same winner ``np.argmax`` picks — so
    top-1 slates match greedy argmax policies bit-for-bit and the result
    equals a stable full sort's first ``k`` entries.
    """
    scores = np.asarray(scores).reshape(-1)
    n = scores.shape[0]
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        pool = np.flatnonzero(scores >= kth)
    else:
        pool = np.arange(n)
    order = pool[np.argsort(-scores[pool], kind="stable")]
    return order[:k].astype(np.int64, copy=False)


@dataclass
class ScoreRequest:
    """One top-K query: a user, a domain, and an optional candidate set."""

    domain: str
    user: int
    k: int = 10
    #: Item ids to rank; ``None`` ranks the domain's full catalogue.
    candidates: Optional[np.ndarray] = None
    #: Relative deadline in milliseconds from admission; ``None`` inherits
    #: the scorer's ``default_deadline_ms`` (which may also be ``None``).
    deadline_ms: Optional[float] = None

    @classmethod
    def from_json(cls, payload: Dict) -> "ScoreRequest":
        candidates = payload.get("candidates")
        deadline = payload.get("deadline_ms")
        return cls(
            domain=str(payload["domain"]),
            user=int(payload["user"]),
            k=int(payload.get("k", 10)),
            candidates=(
                np.asarray(candidates, dtype=np.int64)
                if candidates is not None
                else None
            ),
            deadline_ms=float(deadline) if deadline is not None else None,
        )


@dataclass
class ScoreResponse:
    """One answered query: the top-K slate plus serving provenance."""

    domain: str
    user: int
    items: np.ndarray
    scores: np.ndarray
    cold_start: bool
    generation: int
    params_version: int
    #: ``None`` when served fresh; ``"stale"`` / ``"cold_path"`` when the
    #: degradation ladder answered from a lagging store.
    degraded: Optional[str] = None

    def to_json(self) -> Dict:
        return {
            "domain": self.domain,
            "user": self.user,
            "items": [int(item) for item in self.items],
            "scores": [float(score) for score in self.scores],
            "cold_start": self.cold_start,
            "generation": self.generation,
            "params_version": self.params_version,
            "degraded": self.degraded,
        }


@dataclass
class _DomainBatch:
    """Flat (user-row, item) pair arrays for one domain's requests."""

    positions: List[int] = field(default_factory=list)
    lengths: List[int] = field(default_factory=list)
    users: List[int] = field(default_factory=list)
    candidates: List[np.ndarray] = field(default_factory=list)


#: A batch entry: either a slate or a typed error for that request.
Response = Union[ScoreResponse, ErrorResponse]


class Scorer:
    """Batched top-K front end over a store (or a baseline's score method)."""

    def __init__(
        self,
        model,
        store: Optional[RepresentationStore] = None,
        *,
        micro_batch_size: int = 8192,
        queue_limit: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        hard_staleness: Optional[int] = None,
        health: Optional[ServeHealth] = None,
    ) -> None:
        capabilities = model.capabilities()
        if capabilities.encode_match_split:
            if store is None:
                raise ValueError(
                    f"{type(model).__name__} declares encode_match_split; "
                    "build a RepresentationStore first (Scorer.from_model "
                    "does both)"
                )
        else:
            if store is not None:
                raise ValueError(
                    f"{type(model).__name__} has no encode/match split; it "
                    "is served by micro-batched delegation, without a store"
                )
            # The delegation path scores through the model's evaluation
            # interface; prepare it once (for NMCDR this would be the full
            # forward the store replaces — baselines just switch to eval).
            model.prepare_for_evaluation()
        self.model = model
        self.store = store
        self.micro_batch_size = max(1, int(micro_batch_size))
        self.queue_limit = int(queue_limit) if queue_limit is not None else None
        self.default_deadline_ms = (
            float(default_deadline_ms) if default_deadline_ms is not None else None
        )
        self.hard_staleness = (
            int(hard_staleness) if hard_staleness is not None else None
        )
        self.health = health if health is not None else ServeHealth()

    @classmethod
    def from_model(
        cls,
        model,
        task=None,
        *,
        params_version: int = 0,
        max_staleness: int = 0,
        micro_batch_size: int = 8192,
        queue_limit: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        hard_staleness: Optional[int] = None,
        health: Optional[ServeHealth] = None,
    ) -> "Scorer":
        """Build the store when the model supports one, then wrap it."""
        store = None
        if model.capabilities().encode_match_split:
            if task is None:
                raise ValueError("building a store requires the model's task")
            store = RepresentationStore.build(
                model,
                task,
                params_version=params_version,
                max_staleness=max_staleness,
            )
        return cls(
            model,
            store,
            micro_batch_size=micro_batch_size,
            queue_limit=queue_limit,
            default_deadline_ms=default_deadline_ms,
            hard_staleness=hard_staleness,
            health=health,
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def _domain_sizes(self, domain_key: str) -> Optional[Tuple[int, int]]:
        """``(num_users, num_items)`` of one domain, from the store or the
        task; ``None`` for a delegated model that carries no task."""
        if self.store is not None:
            domain = self.store.tables[domain_key]
        elif getattr(self.model, "task", None) is not None:
            domain = self.model.task.domain(domain_key)
        else:
            return None
        return int(domain.num_users), int(domain.num_items)

    def _ladder_rung(self, current_version: Optional[int]) -> str:
        """Resolve this batch's degradation rung, or raise past the ladder.

        ``store_stale`` fault injection overrides the observed lag so the
        whole ladder is drillable without a live trainer.
        """
        if self.store is None:
            return "fresh"
        injected = faults.injected_staleness_lag()
        if injected is not None:
            lag = int(injected)
        elif current_version is None:
            return "fresh"
        else:
            lag = int(current_version) - self.store.params_version
        if lag <= 0:
            return "fresh"
        if lag <= self.store.max_staleness:
            return "stale"
        if self.hard_staleness is not None and lag <= self.hard_staleness:
            return "cold_path"
        if self.hard_staleness is None:
            # Ladder not configured: keep the store-level contract (raise
            # the moment the staleness bound is crossed).
            raise StaleRepresentationError(
                f"store generation {self.store.generation} holds "
                f"representations of parameter version "
                f"{self.store.params_version}; the live version lags "
                f"{lag} update(s) beyond the staleness bound of "
                f"{self.store.max_staleness} — refresh() before serving"
            )
        raise ServeUnavailableError(
            f"store generation {self.store.generation} (parameter version "
            f"{self.store.params_version}) lags {lag} update(s), beyond even "
            f"the hard staleness bound of {self.hard_staleness}; refresh or "
            "hot-reload before serving"
        )

    def score(
        self, request: ScoreRequest, *, current_version: Optional[int] = None
    ) -> ScoreResponse:
        response = self.score_batch([request], current_version=current_version)[0]
        # collect_errors=False (the default) raises instead of returning
        # ErrorResponse entries, so this cast is safe.
        return response  # type: ignore[return-value]

    def score_batch(
        self,
        requests: Sequence[ScoreRequest],
        *,
        current_version: Optional[int] = None,
        collect_errors: bool = False,
    ) -> List[Response]:
        """Answer a batch of requests, micro-batching the head per domain.

        ``collect_errors=True`` is the serving-loop mode: any per-request
        failure (shed, deadline, staleness, bad domain) becomes a typed
        :class:`ErrorResponse` at that request's position and the rest of
        the batch is still answered.  The default raises on the first
        failure — the pre-existing library contract.
        """
        admitted_at = monotonic()
        responses: List[Optional[Response]] = [None] * len(requests)

        def fail(position: int, error: Exception) -> None:
            code = getattr(error, "code", None)
            if code is None:
                if isinstance(error, StaleRepresentationError):
                    code = "stale"
                elif isinstance(error, (KeyError, StoreError, ValueError)):
                    code = "bad_request"
                else:
                    code = "internal"
            self.health.count_error(code)
            if not collect_errors:
                raise error
            request = requests[position]
            responses[position] = ErrorResponse(
                error=code,
                message=str(error),
                domain=request.domain,
                user=request.user,
            )

        # -- degradation ladder (store-level, resolved once per batch) --
        try:
            rung = self._ladder_rung(current_version)
        except (StaleRepresentationError, ServeUnavailableError) as error:
            for position in range(len(requests)):
                fail(position, error)
            return responses  # type: ignore[return-value]

        # -- admission control ------------------------------------------
        admitted: List[int] = []
        for position in range(len(requests)):
            if self.queue_limit is not None and len(admitted) >= self.queue_limit:
                fail(
                    position,
                    ServeOverloadError(
                        f"admission queue full ({self.queue_limit} request(s) "
                        "admitted); request shed — retry with a smaller batch "
                        "or raise --queue-limit"
                    ),
                )
            else:
                admitted.append(position)

        # -- deadline resolution ----------------------------------------
        deadlines: Dict[int, float] = {}
        for position in admitted:
            relative = requests[position].deadline_ms
            if relative is None:
                relative = self.default_deadline_ms
            if relative is not None:
                deadlines[position] = admitted_at + float(relative) / 1e3

        if deadlines:
            self._score_each(requests, admitted, deadlines, rung, responses, fail)
        else:
            self._score_grouped(requests, admitted, rung, responses, fail)

        for position in admitted:
            response = responses[position]
            if isinstance(response, ScoreResponse):
                self.health.count_response(rung, cold_start=response.cold_start)
        return responses  # type: ignore[return-value]

    # -- grouped fast path (no deadlines): flatten per domain -----------
    def _score_grouped(self, requests, admitted, rung, responses, fail) -> None:
        batches: Dict[str, _DomainBatch] = {}
        for position in admitted:
            request = requests[position]
            try:
                batch = batches.setdefault(request.domain, _DomainBatch())
                candidates = self._candidates(request)
            except Exception as error:  # bad domain, out-of-range id, no item count
                fail(position, error)
                continue
            batch.positions.append(position)
            batch.lengths.append(candidates.shape[0])
            batch.users.append(int(request.user))
            batch.candidates.append(candidates)

        for domain_key, batch in batches.items():
            try:
                flat_scores = self._flat_scores(
                    domain_key,
                    batch.users,
                    batch.candidates,
                    rung=rung,
                    deadline=None,
                )
            except Exception as error:
                for position in batch.positions:
                    fail(position, error)
                continue
            offsets = np.cumsum([0, *batch.lengths])
            for slot, position in enumerate(batch.positions):
                request = requests[position]
                scores = flat_scores[offsets[slot]:offsets[slot + 1]]
                responses[position] = self._build_response(
                    domain_key, batch.users[slot], batch.candidates[slot],
                    scores, request.k, rung,
                )

    # -- per-request path (deadlines active) ----------------------------
    def _score_each(self, requests, admitted, deadlines, rung, responses, fail) -> None:
        for position in admitted:
            request = requests[position]
            deadline = deadlines.get(position)
            try:
                if deadline is not None and monotonic() > deadline:
                    raise DeadlineExceeded(
                        f"request (domain={request.domain!r}, user="
                        f"{request.user}) expired before scoring started "
                        f"(deadline {request.deadline_ms or self.default_deadline_ms} ms)"
                    )
                candidates = self._candidates(request)
                scores = self._flat_scores(
                    request.domain,
                    [int(request.user)],
                    [candidates],
                    rung=rung,
                    deadline=deadline,
                )
                responses[position] = self._build_response(
                    request.domain, int(request.user), candidates,
                    scores, request.k, rung,
                )
            except Exception as error:
                fail(position, error)

    # -- shared helpers -------------------------------------------------
    def _candidates(self, request: ScoreRequest) -> np.ndarray:
        """The request's item ids, once its user and items are known in range.

        Both scoring paths call this per request before any grouping, so an
        out-of-range id answers ``bad_request`` for that request alone: a
        negative id would otherwise index from the end of the store's tables,
        and one past the end would fail the whole domain batch.
        """
        if request.domain not in DOMAIN_KEYS:
            raise KeyError(f"unknown domain {request.domain!r}")
        sizes = self._domain_sizes(request.domain)
        if sizes is None:
            # Nothing to check the ids against, and no catalogue to rank.
            if request.candidates is None:
                raise ValueError(
                    "full-catalogue requests need an item count; pass explicit "
                    "candidates for models without a task"
                )
            return np.asarray(request.candidates, dtype=np.int64)
        num_users, num_items = sizes
        if not 0 <= request.user < num_users:
            raise ValueError(
                f"user {request.user} is out of range for domain "
                f"{request.domain!r}, which has users [0, {num_users})"
            )
        if request.candidates is None:
            return np.arange(num_items, dtype=np.int64)
        candidates = np.asarray(request.candidates, dtype=np.int64)
        if candidates.size and not (
            candidates.min() >= 0 and candidates.max() < num_items
        ):
            raise ValueError(
                "candidate items are out of range for domain "
                f"{request.domain!r}, which has items [0, {num_items})"
            )
        return candidates

    def _build_response(
        self, domain_key, user, candidates, scores, k, rung
    ) -> ScoreResponse:
        top = exact_top_k(scores, k)
        return ScoreResponse(
            domain=domain_key,
            user=user,
            items=candidates[top],
            scores=scores[top],
            cold_start=self._is_cold(domain_key, user),
            generation=self.store.generation if self.store else 0,
            params_version=(self.store.params_version if self.store else 0),
            degraded=None if rung == "fresh" else rung,
        )

    def _is_cold(self, domain_key: str, user: int) -> bool:
        if self.store is None:
            return False
        return not bool(self.store.tables[domain_key].warm[user])

    def _user_row(self, table, user: int, rung: str) -> np.ndarray:
        """The serving row under the batch's ladder rung.

        On the ``cold_path`` rung every user is served from ``user_g3`` —
        the matching-module output, the conservative cross-domain row — not
        just the cold-start users.
        """
        if rung == "cold_path":
            return table.user_g3[user]
        return table.user_row(user)

    def _flat_scores(
        self,
        domain_key: str,
        users: Sequence[int],
        candidate_sets: Sequence[np.ndarray],
        *,
        rung: str,
        deadline: Optional[float],
    ) -> np.ndarray:
        """Flat scores for every (user, candidate) pair, micro-batched.

        ``deadline`` (absolute ``monotonic()`` time) is checked before each
        micro-batch; the chunking never changes the numbers (``score_pairs``
        is elementwise per pair), so grouped and per-request paths agree
        bit for bit.
        """
        lengths = np.asarray([c.shape[0] for c in candidate_sets], dtype=np.int64)
        flat_items = (
            np.concatenate(list(candidate_sets))
            if candidate_sets
            else np.empty(0, dtype=np.int64)
        )
        total = int(flat_items.shape[0])
        if total == 0:
            return np.empty(0)

        if self.store is not None:
            table = self.store.tables[domain_key]
            user_rows = np.stack(
                [self._user_row(table, user, rung) for user in users], axis=0
            )
            flat_users = np.repeat(user_rows, lengths, axis=0)
            item_rows = table.items[flat_items]
        else:
            flat_user_ids = np.repeat(np.asarray(users, dtype=np.int64), lengths)

        chunks = []
        for index, start in enumerate(range(0, total, self.micro_batch_size)):
            faults.scorer_chunk(index)
            if deadline is not None and monotonic() > deadline:
                raise DeadlineExceeded(
                    f"request (domain={domain_key!r}, user={users[0]}) "
                    f"expired after {index} of "
                    f"{-(-total // self.micro_batch_size)} micro-batches"
                )
            stop = start + self.micro_batch_size
            if self.store is not None:
                chunk = self.model.score_pairs(
                    domain_key, flat_users[start:stop], item_rows[start:stop]
                )
            else:
                chunk = self.model.score(
                    domain_key, flat_user_ids[start:stop], flat_items[start:stop]
                )
            chunks.append(chunk)
        return np.concatenate([np.asarray(chunk).reshape(-1) for chunk in chunks])
