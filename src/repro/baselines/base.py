"""Shared infrastructure for the comparison baselines (Section III.A.3).

Every baseline implements a single method, :meth:`BaselineModel.batch_scores`,
returning interaction probabilities for a batch of (user, item) pairs of one
domain.  The base class turns that into the trainer protocol used by
:class:`repro.core.CDRTrainer` (joint BCE loss over both domains, evaluation
scoring under ``no_grad``), so baselines and NMCDR are trained and evaluated
by exactly the same loop — the fair-comparison setup of the paper.

Baselines that need a different objective (e.g. BPR's pairwise loss) override
:meth:`domain_batch_loss`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.sharded import ShardLoss
from ..core.task import CDRTask, DOMAIN_KEYS
from ..data.dataloader import Batch
from ..data.negative_sampling import NegativeSampler
from ..graph import SubgraphCache
from ..graph.sampling import DomainSubgraph, InteractionGraph
from ..nn import ModelCapabilities, Module, losses
from ..tensor import Tensor, no_grad, ops

__all__ = ["BaselineModel", "SubgraphSamplingMixin"]


class SubgraphSamplingMixin:
    """Opt-in sampled-subgraph *training* for baselines with graph encoders.

    Mirrors :meth:`repro.core.NMCDR.configure_subgraph_sampling`: when
    enabled, the model's training-time ``batch_scores`` restricts graph
    propagation to the induced k-hop subgraph around the batch, with one
    :class:`~repro.graph.SubgraphCache` per named graph.  Evaluation
    (``self.training == False``) always runs the full-graph path.
    """

    #: Hops required for exact restricted propagation (the encoder depth of
    #: the subclass; every graph baseline here uses one layer).
    subgraph_exact_hops = 1

    _subgraph_num_hops: Optional[int] = None
    _subgraph_fanout: Optional[int] = None
    _subgraph_caches: Optional[Dict[str, SubgraphCache]] = None

    def configure_subgraph_sampling(
        self,
        enabled: bool = True,
        *,
        num_hops: Optional[int] = None,
        fanout: Optional[int] = None,
        cache_size: int = 16,
    ) -> None:
        """Enable restricted training-time propagation; see the class docstring.

        The baselines here draw no matching pools, so their per-step plan is
        already the degenerate schedule: seeds = the batch, memoised by
        signature in the subgraph cache.
        """
        if not enabled:
            self._subgraph_num_hops = None
            self._subgraph_fanout = None
            self._subgraph_caches = None
            return
        resolved = int(num_hops) if num_hops is not None else self.subgraph_exact_hops
        if resolved < 1:
            raise ValueError("num_hops must be >= 1")
        self._subgraph_num_hops = resolved
        self._subgraph_fanout = fanout
        self._subgraph_cache_size = int(cache_size)
        self._subgraph_caches = {}

    @property
    def subgraph_sampling_enabled(self) -> bool:
        return self._subgraph_num_hops is not None

    def _use_sampled_forward(self) -> bool:
        """Sampling applies to training steps only; scoring stays exact."""
        return self._subgraph_num_hops is not None and self.training

    def _subgraph_for(
        self,
        cache_key: str,
        graph: InteractionGraph,
        seed_users,
        seed_items,
    ) -> DomainSubgraph:
        cache = self._subgraph_caches.get(cache_key)
        if cache is None:
            cache = SubgraphCache(getattr(self, "_subgraph_cache_size", 16))
            self._subgraph_caches[cache_key] = cache
        return cache.get(
            graph,
            seed_users,
            seed_items,
            num_hops=self._subgraph_num_hops,
            fanout=self._subgraph_fanout,
        )


class BaselineModel(Module):
    """Base class adapting a per-batch scorer to the joint CDR trainer protocol."""

    #: human-readable name used in experiment tables; subclasses override.
    display_name = "Baseline"

    def __init__(self, task: CDRTask, seed: int = 0) -> None:
        super().__init__()
        self.task = task
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self._negative_samplers: Dict[str, NegativeSampler] = {}

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def batch_scores(
        self,
        domain_key: str,
        users: np.ndarray,
        items: np.ndarray,
    ) -> Tensor:
        """Return interaction probabilities (shape ``(n, 1)`` or ``(n,)``)."""
        raise NotImplementedError

    def extra_losses(self) -> Optional[Tensor]:
        """Optional model-level regularisation terms added once per step."""
        return None

    # ------------------------------------------------------------------
    # trainer protocol
    # ------------------------------------------------------------------
    def domain_batch_loss(self, domain_key: str, batch: Batch) -> Tensor:
        """Pointwise BCE loss for one domain's mini-batch."""
        predictions = self.batch_scores(domain_key, batch.users, batch.items)
        return losses.binary_cross_entropy(predictions, batch.labels.reshape(-1, 1))

    def compute_batch_loss(self, batches: Dict[str, Optional[Batch]]) -> Tensor:
        total: Optional[Tensor] = None
        for key in DOMAIN_KEYS:
            batch = batches.get(key)
            if batch is None or len(batch) == 0:
                continue
            loss = self.domain_batch_loss(key, batch)
            total = loss if total is None else total + loss
        if total is None:
            raise ValueError("compute_batch_loss needs at least one non-empty batch")
        extra = self.extra_losses()
        if extra is not None:
            total = total + extra
        return total

    # ------------------------------------------------------------------
    # capability declaration
    # ------------------------------------------------------------------
    def capabilities(self) -> ModelCapabilities:
        """Declared protocol support: pool-free pointwise models.

        ``sharding`` mirrors :meth:`supports_sharding` (subclasses that
        override the pointwise loss lose it automatically);
        ``subgraph_sampling`` is declared by mixing in
        :class:`SubgraphSamplingMixin`.  Baselines draw no matching pools,
        plan no pool exchange and have no encode/match split — their whole
        forward is ``batch_scores``.
        """
        return ModelCapabilities(
            sharding=self.supports_sharding(),
            subgraph_sampling=isinstance(self, SubgraphSamplingMixin),
        )

    # ------------------------------------------------------------------
    # sharded execution protocol
    # ------------------------------------------------------------------
    def supports_sharding(self) -> bool:
        """Whether the sharded executor can decompose this model's steps.

        The sharded loss decomposition assumes the default pointwise BCE
        objective (per-example terms that sum across shards) and a step
        that consumes no rng; models overriding ``domain_batch_loss`` or
        ``compute_batch_loss`` (e.g. BPR's pairwise loss, which draws its
        own negatives inside the step) must train on the serial executor.
        """
        return (
            type(self).domain_batch_loss is BaselineModel.domain_batch_loss
            and type(self).compute_batch_loss is BaselineModel.compute_batch_loss
        )

    def compute_shard_loss(
        self,
        batches: Dict[str, Optional[Batch]],
        *,
        pools=None,
        full_sizes: Optional[Dict[str, int]] = None,
        localize: bool = False,
        include_extra: bool = True,
    ) -> ShardLoss:
        """One shard's pointwise loss over its micro-batches (worker-side).

        Mirrors :meth:`compute_batch_loss` with the per-domain mean
        normalised by the step's *full* batch size (``full_sizes``) so
        per-shard losses and gradients sum to the full-batch quantities.
        Graph baselines with sampled-subgraph support localise inside
        ``batch_scores`` (the worker enables it when ``localize`` is set),
        so nothing else is needed here.  ``extra_losses`` is charged to
        shard 0 only (``include_extra``) — it is batch-independent and must
        enter the reduced gradient exactly once.
        """
        del pools, localize  # pool-free models; locality lives in batch_scores
        if not self.supports_sharding():
            raise NotImplementedError(
                f"{type(self).__name__} overrides the pointwise loss and cannot "
                "be decomposed into shard losses"
            )
        if not include_extra and not any(
            batch is not None and len(batch) > 0 for batch in batches.values()
        ):
            return ShardLoss()
        total: Optional[Tensor] = None
        terms: Dict[str, np.ndarray] = {}
        value_dtype: Optional[str] = None
        for key in DOMAIN_KEYS:
            batch = batches.get(key)
            if batch is None or len(batch) == 0:
                continue
            predictions = self.batch_scores(key, batch.users, batch.items)
            labels = batch.labels.reshape(-1, 1)
            term_sum, raw = ops.binary_cross_entropy_probs(
                predictions, labels, reduction="sum", return_terms=True
            )
            # Raw pre-reduction terms (natural dtype) for the parent's
            # canonical ``mean`` over the reassembled full batch.
            terms[key] = raw
            full_size = (full_sizes or {}).get(key, len(batch))
            columns = max(raw.size // len(batch), 1)
            # The serial path reduces with ``mean`` over the full batch
            # array; scaling the shard's term sum by 1/(full array size)
            # hands the kernel's backward the exact per-term multiplier of
            # that mean, so shard gradients sum to the serial gradient.
            loss = term_sum * (1.0 / (full_size * columns))
            total = loss if total is None else total + loss
            value_dtype = str(loss.data.dtype)
        extra_value: Optional[float] = None
        if include_extra:
            extra = self.extra_losses()
            if extra is not None:
                total = extra if total is None else total + extra
                extra_value = float(extra.item())
                value_dtype = value_dtype or str(extra.data.dtype)
        return ShardLoss(
            loss=total,
            terms=terms,
            reductions={key: "mean" for key in terms},
            extra=extra_value,
            value_dtype=value_dtype,
        )

    # ------------------------------------------------------------------
    # traced step replay hooks (repro.tensor.trace)
    # ------------------------------------------------------------------
    def trace_signature(self):
        """Structural key component for traced step replay."""
        return (
            type(self).__name__,
            getattr(self, "_subgraph_num_hops", None),
            getattr(self, "_subgraph_fanout", None),
        )

    def trace_rng_sources(self):
        """Generators a training step may consume (rewound on trace fallback)."""
        sources = [self.rng] if isinstance(self.rng, np.random.Generator) else []
        for sampler in self._negative_samplers.values():
            rng = getattr(sampler, "rng", None) or getattr(sampler, "_rng", None)
            if isinstance(rng, np.random.Generator):
                sources.append(rng)
        return tuple(sources)

    def prepare_for_evaluation(self) -> None:
        """Hook called before scoring; default switches to eval mode."""
        self.eval()

    def invalidate_cache(self) -> None:
        """Hook called after each optimiser step; default restores train mode."""
        self.train()

    def score(
        self,
        domain_key: str,
        users: np.ndarray,
        items: np.ndarray,
    ) -> np.ndarray:
        with no_grad():
            predictions = self.batch_scores(domain_key, users, items)
        return predictions.data.reshape(-1)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def negative_sampler(self, domain_key: str) -> NegativeSampler:
        """Lazily constructed per-domain negative sampler (pairwise losses)."""
        if domain_key not in self._negative_samplers:
            self._negative_samplers[domain_key] = NegativeSampler(
                self.task.domain(domain_key).split.train_domain(),
                rng=np.random.default_rng(self.rng.integers(0, 2**32 - 1)),
            )
        return self._negative_samplers[domain_key]

    def overlap_partner_lookup(self, domain_key: str) -> np.ndarray:
        """Array mapping local user index -> partner index in the other domain (-1 if none)."""
        return self.task.partner_lookup(domain_key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scenario={self.task.dataset.name!r})"
