"""The NMCDR model (Section II): neural node matching for multi-target CDR.

The model is built from the components defined in this package:

* :class:`HeterogeneousGraphEncoder` — per-domain user–item message passing;
* :class:`IntraNodeMatching` — within-domain head/tail user matching;
* :class:`InterNodeMatching` — cross-domain matching for overlapped and
  non-overlapped users;
* :class:`IntraNodeComplementing` — user-to-item virtual links correcting
  under-represented (tail) users;
* :class:`PredictionHead` — shared scoring MLP, also used by the companion
  objectives of every stage.

One forward pass produces the staged user representations ``u_g0 .. u_g4`` for
*both* domains simultaneously (the inter matching step couples them), which is
also what lets the joint trainer optimise both domains' losses from a single
graph traversal (Eq. 24).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..data.dataloader import Batch
from ..graph import MatchingNeighborSampler, SubgraphCache
from ..nn import Embedding, ModelCapabilities, Module, ModuleList
from ..profiling import profiler
from ..tensor import Tensor, no_grad, ops
from .complementing import IntraNodeComplementing
from .config import NMCDRConfig
from .encoder import HeterogeneousGraphEncoder
from .inter_matching import InterNodeMatching
from .intra_matching import IntraNodeMatching
from .plan_schedule import PlanSchedule, plan_structure_key
from .prediction import PredictionHead
from .sharded import ShardLoss
from .subgraph_plan import (
    SubgraphPlan,
    SubgraphSettings,
    build_subgraph_plan_from_pools,
    sample_matching_pools,
)
from .task import CDRTask, DOMAIN_KEYS

__all__ = ["NMCDR", "DomainRepresentations"]


#: Stage names in pipeline order; ``user_g4`` feeds the final prediction loss.
STAGES = ("user_g0", "user_g1", "user_g2", "user_g3", "user_g4")


class _PoolReplaySampler:
    """Sampler that replays pre-drawn matching pools in full-forward order.

    The sharded executor draws every pool of a step in the parent process
    (:func:`~repro.core.subgraph_plan.sample_matching_pools`) and ships them
    to the shard workers; a worker running the *full-graph* forward (replica
    mode, ``n_shards=1``) injects them through this object so the forward
    consumes the exact pools of the serial stream without touching any rng.
    """

    def __init__(self, intra_pools, inter_pools, config: NMCDRConfig) -> None:
        self._draws = []
        for layer in range(config.num_matching_layers):
            if config.use_intra_matching:
                for key in DOMAIN_KEYS:
                    self._draws.append(("partition", intra_pools[key][layer]))
            if config.use_inter_matching:
                for key in DOMAIN_KEYS:
                    self._draws.append(("pool", inter_pools[key][layer]))
        self._cursor = 0

    def _next(self, kind: str):
        if self._cursor >= len(self._draws) or self._draws[self._cursor][0] != kind:
            raise RuntimeError(
                "matching-pool replay out of sync with the forward pass "
                f"(wanted a {kind!r} draw at position {self._cursor})"
            )
        value = self._draws[self._cursor][1]
        self._cursor += 1
        return value

    def sample_partition(self, partition):
        return self._next("partition")

    def sample(self, candidates):
        return self._next("pool")


class DomainRepresentations(dict):
    """Per-domain staged representations produced by one forward pass.

    Keys: ``user_g0`` (look-up), ``user_g1`` (graph encoder), ``user_g2``
    (intra matching), ``user_g3`` (inter matching), ``user_g4``
    (complementing) and ``items`` (item representations used for scoring).
    """


class _DomainParameters(Module):
    """All learnable parameters owned by a single domain."""

    def __init__(self, num_users: int, num_items: int, config: NMCDRConfig, rng: np.random.Generator) -> None:
        super().__init__()
        dim = config.embedding_dim
        self.user_embedding = Embedding(num_users, dim, rng=rng)
        self.item_embedding = Embedding(num_items, dim, rng=rng)
        self.encoder = HeterogeneousGraphEncoder(
            dim,
            config.resolved_hge_dim,
            num_layers=config.num_encoder_layers,
            kernel=config.gnn_kernel,
            rng=rng,
        )
        self.intra_layers = ModuleList(
            [
                IntraNodeMatching(config.resolved_hge_dim, config.resolved_igm_dim, rng=rng)
                for _ in range(config.num_matching_layers)
            ]
        )
        self.inter_layers = ModuleList(
            [
                InterNodeMatching(config.resolved_igm_dim, config.resolved_cgm_dim, rng=rng)
                for _ in range(config.num_matching_layers)
            ]
        )
        self.complementing = IntraNodeComplementing(
            config.resolved_cgm_dim, config.resolved_ref_dim, rng=rng
        )
        self.prediction = PredictionHead(
            config.resolved_ref_dim,
            config.resolved_hge_dim,
            hidden_sizes=config.prediction_hidden,
            dropout=config.dropout,
            rng=rng,
        )


class NMCDR(Module):
    """Neural node matching model for a two-domain CDR task."""

    def __init__(self, task: CDRTask, config: Optional[NMCDRConfig] = None) -> None:
        super().__init__()
        self.task = task
        self.config = config or NMCDRConfig()
        rng = np.random.default_rng(self.config.seed)
        self.domain_a_params = _DomainParameters(
            task.domain_a.num_users, task.domain_a.num_items, self.config, rng
        )
        self.domain_b_params = _DomainParameters(
            task.domain_b.num_users, task.domain_b.num_items, self.config, rng
        )
        self._sampler = MatchingNeighborSampler(
            self.config.max_matching_neighbors, rng=np.random.default_rng(self.config.seed + 1)
        )
        #: Pass-through sampler for pre-drawn pools (sampled-subgraph mode).
        self._identity_sampler = MatchingNeighborSampler(None)
        self._subgraph_settings: Optional[SubgraphSettings] = None
        self._subgraph_caches: Optional[Dict[str, SubgraphCache]] = None
        self._plan_schedule: Optional[PlanSchedule] = None
        self._cache: Optional[Dict[str, Dict[str, np.ndarray]]] = None

    # ------------------------------------------------------------------
    # capability declaration
    # ------------------------------------------------------------------
    def capabilities(self) -> ModelCapabilities:
        """NMCDR implements every optional execution protocol in the repo."""
        return ModelCapabilities(
            encode_match_split=True,
            sharding=True,
            matching_pools=True,
            subgraph_sampling=True,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _params(self, key: str) -> _DomainParameters:
        if key == "a":
            return self.domain_a_params
        if key == "b":
            return self.domain_b_params
        raise KeyError(f"unknown domain key '{key}'")

    # ------------------------------------------------------------------
    # sampled-subgraph training mode
    # ------------------------------------------------------------------
    def configure_subgraph_sampling(
        self,
        enabled: bool = True,
        *,
        num_hops: Optional[int] = None,
        fanout: Optional[int] = None,
        cache_size: int = 16,
    ) -> None:
        """Switch mini-batch training to k-hop subgraph forwards.

        When enabled, :meth:`compute_batch_loss` extracts the induced
        ``num_hops``-hop subgraph around each step's batch (plus every
        matching pool and overlap partner the pipeline reads) and runs the
        whole five-stage forward on local tensors, making the step cost a
        function of the batch rather than the graph.  Evaluation
        (:meth:`prepare_for_evaluation`) always uses the exact full-graph
        forward.

        ``num_hops`` defaults to the model's *exactness depth*:
        ``num_encoder_layers``, plus one hop for the GCN/GAT kernels (their
        normalisation — far-endpoint degrees resp. per-node attention
        softmaxes — reads the neighbourhood structure of the frontier
        nodes), plus one hop when node complementing is enabled (Eq. 18–19
        read the encoder outputs of the batch users' neighbour items, which
        in turn need *their* own encoder neighbourhood).  That default,
        together with ``fanout=None``, makes sampled training *exact*: the
        batch rows of every stage — and therefore losses and parameter
        gradients — match the full-graph forward to floating-point
        equality.  Smaller hop counts or a ``fanout`` cap trade exactness
        for bounded subgraphs.

        The per-domain subgraph cache holds at most ``cache_size`` induced
        subgraphs; signatures repeat (and hit) only when the step's seed
        sets do — e.g. with deterministic matching pools
        (``max_matching_neighbors=None``) and fixed negatives — so the
        default is kept small to bound memory on large graphs.

        Plans come from a persistent
        :class:`~repro.core.plan_schedule.PlanSchedule`: delta-updated seed
        sets, an incremental k-hop expansion and pool draws in the
        full-graph forward's rng order.
        """
        if not enabled:
            self._subgraph_settings = None
            self._subgraph_caches = None
            self._plan_schedule = None
            return
        if num_hops is not None:
            resolved = num_hops
        else:
            resolved = max(self.config.num_encoder_layers, 1)
            if self.config.gnn_kernel.lower() in ("gcn", "gat"):
                resolved += 1
            if self.config.use_complementing:
                resolved += 1
        self._subgraph_settings = SubgraphSettings(num_hops=resolved, fanout=fanout)
        self._subgraph_caches = {key: SubgraphCache(cache_size) for key in DOMAIN_KEYS}
        self._plan_schedule = PlanSchedule(
            self.task,
            self.config,
            self._subgraph_settings,
            self._sampler,
            self._subgraph_caches,
        )

    @property
    def subgraph_sampling_enabled(self) -> bool:
        return self._subgraph_settings is not None

    @property
    def plan_schedule(self) -> Optional[PlanSchedule]:
        """The incremental plan schedule while subgraph sampling is on."""
        return self._plan_schedule

    def on_epoch_start(self, epoch: int) -> None:
        """Training-engine epoch hook: advance the plan schedule's epoch."""
        if self._plan_schedule is not None:
            self._plan_schedule.begin_epoch(epoch)

    # ------------------------------------------------------------------
    # traced step replay hooks (repro.tensor.trace)
    # ------------------------------------------------------------------
    def trace_signature(self) -> Tuple:
        """Structural key component for traced step replay (not per-batch)."""
        return (type(self).__name__, plan_structure_key(self._subgraph_settings))

    def trace_rng_sources(self) -> Tuple:
        """Generators a training step consumes (rewound on trace fallback)."""
        rng = self._sampler._rng
        return (rng,) if isinstance(rng, np.random.Generator) else ()

    # ------------------------------------------------------------------
    # forward pipeline
    # ------------------------------------------------------------------
    def _active_keys(self, plan: Optional[SubgraphPlan]) -> Tuple[str, ...]:
        return tuple(
            key for key in DOMAIN_KEYS if plan is None or plan.is_active(key)
        )

    def encode_representations(
        self,
        plan: Optional[SubgraphPlan] = None,
        *,
        keys: Optional[Tuple[str, ...]] = None,
    ) -> Dict[str, DomainRepresentations]:
        """Stages 0/1: look-up plus heterogeneous graph encoder, per domain.

        Returns partial :class:`DomainRepresentations` carrying ``user_g0``,
        ``user_g1`` and ``items``.

        ``keys`` restricts encoding to the named domains.  A domain's
        encoder output depends only on that domain's embedding/encoder
        parameters and its training graph, so a caller holding valid
        encoder outputs for the other domain (the serving store's
        incremental refresh) may recompute one domain alone and splice the
        stored tensors back in before :meth:`match_representations`.
        """
        reps: Dict[str, DomainRepresentations] = {}
        for key in self._active_keys(plan):
            if keys is not None and key not in keys:
                continue
            params = self._params(key)
            if plan is None:
                graph = self.task.domain(key).train_graph
                user_g0 = params.user_embedding.all()
                item_g0 = params.item_embedding.all()
            else:
                subgraph = plan.domain(key).subgraph
                graph = subgraph.graph
                user_g0 = params.user_embedding(subgraph.user_ids)
                item_g0 = params.item_embedding(subgraph.item_ids)
            user_g1, item_g1 = params.encoder(graph, user_g0, item_g0)
            reps[key] = DomainRepresentations(user_g0=user_g0, user_g1=user_g1, items=item_g1)
        return reps

    def match_representations(
        self,
        reps: Dict[str, DomainRepresentations],
        plan: Optional[SubgraphPlan] = None,
    ) -> Dict[str, DomainRepresentations]:
        """Stages 2–4: matching blocks and complementing over encoded reps."""
        config = self.config
        active_keys = self._active_keys(plan)

        encoded_users: Dict[str, Tensor] = {
            key: reps[key]["user_g1"] for key in active_keys
        }

        # Stage 2/3: stacked intra + inter matching blocks (coupled across domains).
        current: Dict[str, Tensor] = dict(encoded_users)
        intra_out: Dict[str, Tensor] = dict(encoded_users)
        inter_out: Dict[str, Tensor] = dict(encoded_users)
        for layer_index in range(config.num_matching_layers):
            # intra matching within each domain
            if config.use_intra_matching:
                for key in active_keys:
                    params = self._params(key)
                    if plan is None:
                        current[key] = params.intra_layers[layer_index](
                            current[key], self.task.domain(key).partition, self._sampler
                        )
                    else:
                        current[key] = params.intra_layers[layer_index](
                            current[key], pools=plan.domain(key).intra_pools[layer_index]
                        )
            intra_out = dict(current)

            # inter matching across domains (computed from the same input state)
            if config.use_inter_matching:
                pairs = self.task.overlap_pairs
                updated: Dict[str, Tensor] = {}
                for key in active_keys:
                    other = self.task.other_key(key)
                    if plan is None:
                        own_overlap = pairs[:, 0] if key == "a" else pairs[:, 1]
                        other_overlap = pairs[:, 1] if key == "a" else pairs[:, 0]
                        other_repr = current[other]
                        other_pool = self.task.non_overlap_indices(other)
                        sampler = self._sampler
                    else:
                        domain_plan = plan.domain(key)
                        own_overlap = domain_plan.overlap_own
                        other_overlap = domain_plan.overlap_other
                        # The pool was drawn when the plan was built (its
                        # users are subgraph seeds), so the pass-through
                        # sampler forwards the local ids untouched.
                        other_pool = domain_plan.inter_pools[layer_index]
                        other_repr = current.get(other)
                        if other_repr is None:
                            other_repr = Tensor(
                                np.zeros((0, current[key].shape[1]))
                            )
                        sampler = self._identity_sampler
                    updated[key] = self._params(key).inter_layers[layer_index](
                        current[key],
                        other_repr,
                        own_overlap,
                        other_overlap,
                        other_pool,
                        self._params(other).inter_layers[layer_index].cross,
                        sampler,
                    )
                current = updated
            inter_out = dict(current)

        for key in active_keys:
            reps[key]["user_g2"] = intra_out[key]
            reps[key]["user_g3"] = inter_out[key]

        # Stage 4: intra node complementing.
        for key in active_keys:
            params = self._params(key)
            if config.use_complementing:
                if plan is None:
                    graph = self.task.domain(key).train_graph
                else:
                    graph = plan.domain(key).subgraph.graph
                reps[key]["user_g4"] = params.complementing(
                    graph, reps[key]["user_g3"], reps[key]["items"]
                )
            else:
                reps[key]["user_g4"] = reps[key]["user_g3"]
        return reps

    def forward_representations(
        self, plan: Optional[SubgraphPlan] = None
    ) -> Dict[str, DomainRepresentations]:
        """Run the five-stage pipeline and return staged representations.

        Without a ``plan`` the pipeline propagates over the full graphs of
        both domains (the exact path used for evaluation).  With a
        :class:`SubgraphPlan` every stage operates on the plan's induced
        subgraph tensors: row ``i`` of each returned stage corresponds to
        global node ``plan.domain(key).subgraph.user_ids[i]`` (items
        likewise), and domains the plan marks inactive are skipped entirely.
        The pipeline is :meth:`encode_representations` (stages 0/1) followed
        by :meth:`match_representations` (stages 2–4).
        """
        return self.match_representations(self.encode_representations(plan), plan)

    # ------------------------------------------------------------------
    # training loss
    # ------------------------------------------------------------------
    def compute_batch_loss(self, batches: Dict[str, Optional[Batch]]) -> Tensor:
        """Total loss of Eq. 24 for the given per-domain mini-batches.

        ``batches`` maps domain keys to :class:`Batch` objects (``None`` skips
        a domain).  One forward pass serves both domains; when subgraph
        sampling is configured (:meth:`configure_subgraph_sampling`), that
        pass propagates only over the induced k-hop subgraph around the
        batches and the loss reads local rows.
        """
        plan: Optional[SubgraphPlan] = None
        if self._plan_schedule is not None:
            with profiler.scope("plan/build"):
                plan = self._plan_schedule.plan_for(batches)
        reps = self.forward_representations(plan)
        w_co_a, w_co_b, w_cls_a, w_cls_b = self.config.loss_weights
        total: Optional[Tensor] = None

        for key, companion_weight, cls_weight in (
            ("a", w_co_a, w_cls_a),
            ("b", w_co_b, w_cls_b),
        ):
            batch = batches.get(key)
            if batch is None or len(batch) == 0:
                continue
            if plan is not None:
                domain_plan = plan.domain(key)
                batch = Batch(
                    users=domain_plan.batch_users,
                    items=domain_plan.batch_items,
                    labels=batch.labels,
                )
            domain_loss = self._domain_loss(key, reps[key], batch, companion_weight, cls_weight)
            total = domain_loss if total is None else total + domain_loss

        if total is None:
            raise ValueError("compute_batch_loss needs at least one non-empty batch")
        return total

    def _domain_loss(
        self,
        key: str,
        reps: DomainRepresentations,
        batch: Batch,
        companion_weight: float,
        cls_weight: float,
        weight_batch_size: Optional[int] = None,
        return_example_terms: bool = False,
    ) -> Tensor:
        """Final (Eq. 23) plus companion (Eq. 22) losses for one domain.

        All stages share one prediction head, so the five per-stage scoring
        passes are batched into a single head invocation on the stacked
        stage rows: one MLP forward/backward instead of five, with the
        per-stage means recovered by a constant weight vector.  (With a
        non-zero head dropout this draws one mask across the stacked rows
        rather than five independent ones — the expectation is unchanged.)

        ``weight_batch_size`` overrides the per-stage mean's normaliser —
        the sharded executor computes micro-batch losses normalised by the
        *full* batch size so per-shard partial losses (and gradients) sum
        to the full-batch quantities.  ``return_example_terms=True``
        additionally returns the raw pre-reduction weighted loss-term
        array (one row per stacked stage row, in its natural pre-cast
        dtype), which the executor reassembles in canonical batch order
        and reduces exactly like the fused kernel; the returned loss
        tensor is the unchanged fused ``"sum"`` node either way, so the
        backward pass is the serial one verbatim.
        """
        params = self._params(key)
        batch_size = batch.users.shape[0]
        weight_size = weight_batch_size if weight_batch_size is not None else batch_size

        # Stage roster: the final prediction on u_g4 first, then the
        # companions u_g0 .. u_g3 when enabled.
        if self.config.use_companion:
            stages = ("user_g4", *STAGES[:4])
            stage_weights = (
                cls_weight,
                *(w * companion_weight for w in self.config.companion_weights),
            )
        else:
            stages = ("user_g4",)
            stage_weights = (cls_weight,)

        user_rows = ops.gather_concat_rows([reps[stage] for stage in stages], batch.users)
        item_rows = ops.gather_rows(reps["items"], np.tile(batch.items, len(stages)))
        predictions = params.prediction(user_rows, item_rows)

        labels = np.tile(batch.labels.reshape(-1, 1), (len(stages), 1))
        # sum_k weight_k * mean(bce over stage-k block), as one weighted sum.
        example_weights = np.repeat(
            np.asarray(stage_weights, dtype=predictions.data.dtype) / weight_size,
            batch_size,
        ).reshape(-1, 1)
        if return_example_terms:
            return ops.binary_cross_entropy_probs(
                predictions, labels, weights=example_weights, reduction="sum",
                return_terms=True,
            )
        return ops.binary_cross_entropy_probs(
            predictions, labels, weights=example_weights, reduction="sum"
        )

    # ------------------------------------------------------------------
    # sharded execution protocol
    # ------------------------------------------------------------------
    def supports_sharding(self) -> bool:
        return True

    def sample_step_pools(self):
        """Draw one training step's matching pools (parent-side, per step).

        Consumes exactly the sampler rng a serial training forward would —
        whether that forward is full-graph (pools drawn inside the matching
        layers) or plan-based (pools pre-drawn by the plan builder) — so a
        sharded run's parent rng stream, and therefore its mid-training
        evaluation, matches the serial executor's.
        """
        return sample_matching_pools(self.task, self.config, self._sampler)

    def compute_shard_loss(
        self,
        batches: Dict[str, Optional[Batch]],
        *,
        pools=None,
        full_sizes: Optional[Dict[str, int]] = None,
        localize: bool = False,
        include_extra: bool = True,
    ) -> "ShardLoss":
        """One shard's loss for its micro-batches (worker-side, rng-free).

        ``pools`` are the step's parent-drawn matching pools.  With
        ``localize=True`` the five-stage forward runs over the induced
        subgraph around the micro-batch (plus the pools' closure), so shard
        cost follows the micro-batch; with ``localize=False`` (the
        ``n_shards=1`` replica mode) the forward replays the serial
        computation — the full-graph forward with the pools injected, or,
        under subgraph sampling, a from-scratch plan byte-identical to the
        serial schedule's — and is bit-identical to the serial executor.
        Loss terms are normalised by ``full_sizes`` (the step's full batch
        sizes) so the per-shard losses and gradients decompose the
        full-batch quantities.
        """
        del include_extra  # NMCDR has no model-level extra losses
        if pools is None:
            raise ValueError("NMCDR shard steps need the parent-drawn matching pools")
        if not any(batch is not None and len(batch) > 0 for batch in batches.values()):
            # Every domain of this shard's micro-batch is empty (more shards
            # than batch users): contribute nothing instead of running a
            # pool-only forward.
            return ShardLoss()
        intra_pools, inter_pools = pools
        plan: Optional[SubgraphPlan] = None
        replay_sampler: Optional[_PoolReplaySampler] = None
        if localize or self._subgraph_settings is not None:
            settings = self._subgraph_settings
            caches = self._subgraph_caches
            if settings is None:
                # Workers localise at the exactness depth by default; the
                # executor configures this post-fork, so reaching this branch
                # means a caller drove the protocol directly.
                self.configure_subgraph_sampling(True)
                settings, caches = self._subgraph_settings, self._subgraph_caches
            plan = build_subgraph_plan_from_pools(
                self.task, self.config, batches, intra_pools, inter_pools, settings, caches
            )
        else:
            replay_sampler = _PoolReplaySampler(intra_pools, inter_pools, self.config)

        original_sampler = self._sampler
        if replay_sampler is not None:
            self._sampler = replay_sampler
        try:
            reps = self.forward_representations(plan)
        finally:
            self._sampler = original_sampler
        return self._shard_loss_terms(reps, batches, plan, full_sizes)

    def _shard_loss_terms(
        self,
        reps: Dict[str, DomainRepresentations],
        batches: Dict[str, Optional[Batch]],
        plan: Optional[SubgraphPlan],
        full_sizes: Optional[Dict[str, int]],
    ) -> "ShardLoss":
        """Assemble one shard's :class:`ShardLoss` from staged representations.

        Losses are normalised by the step's *full* batch sizes so per-shard
        partial losses (and gradients) sum to the full-batch quantities; the
        raw pre-reduction terms ride along for the parent's canonical-order
        reduction.
        """
        w_co_a, w_co_b, w_cls_a, w_cls_b = self.config.loss_weights
        total: Optional[Tensor] = None
        terms: Dict[str, np.ndarray] = {}
        for key, companion_weight, cls_weight in (
            ("a", w_co_a, w_cls_a),
            ("b", w_co_b, w_cls_b),
        ):
            batch = batches.get(key)
            if batch is None or len(batch) == 0:
                continue
            if plan is not None:
                domain_plan = plan.domain(key)
                local_batch = Batch(
                    users=domain_plan.batch_users,
                    items=domain_plan.batch_items,
                    labels=batch.labels,
                )
            else:
                local_batch = batch
            full_size = (full_sizes or {}).get(key, len(batch))
            loss, raw_terms = self._domain_loss(
                key,
                reps[key],
                local_batch,
                companion_weight,
                cls_weight,
                weight_batch_size=full_size,
                return_example_terms=True,
            )
            terms[key] = raw_terms
            total = loss if total is None else total + loss
        return ShardLoss(
            loss=total,
            terms=terms,
            reductions={key: "sum" for key in terms},
            value_dtype=str(total.data.dtype) if total is not None else None,
        )

    # ------------------------------------------------------------------
    # evaluation interface
    # ------------------------------------------------------------------
    def prepare_for_evaluation(self) -> None:
        """Run one forward pass and cache representations for scoring."""
        self.eval()
        with no_grad():
            reps = self.forward_representations()
        self._cache = {
            key: {name: tensor.data.copy() for name, tensor in reps[key].items()}
            for key in DOMAIN_KEYS
        }
        self.train()

    def score(self, domain_key: str, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Affinity scores from the cached representations (Eq. 20)."""
        if self._cache is None:
            self.prepare_for_evaluation()
        cache = self._cache[domain_key]
        params = self._params(domain_key)
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        with no_grad():
            user_rows = Tensor(cache["user_g4"][users])
            item_rows = Tensor(cache["items"][items])
            probabilities = params.prediction(user_rows, item_rows)
        return probabilities.data.ravel()

    def score_pairs(
        self, domain_key: str, user_rows: np.ndarray, item_rows: np.ndarray
    ) -> np.ndarray:
        """Prediction-head probabilities for already-gathered representation rows.

        The serving tier gathers ``user_g4`` (or ``user_g3`` for cold-start
        users) and item rows from its persistent store and scores them here —
        the same head invocation :meth:`score` runs on its forward cache, so
        store-backed scoring is bit-identical to full rescoring.
        """
        params = self._params(domain_key)
        with no_grad():
            probabilities = params.prediction(Tensor(user_rows), Tensor(item_rows))
        return probabilities.data.ravel()

    def stage_representations(self, domain_key: str) -> Dict[str, np.ndarray]:
        """Cached per-stage user representations (used by the Fig. 5 analysis)."""
        if self._cache is None:
            self.prepare_for_evaluation()
        return dict(self._cache[domain_key])

    def invalidate_cache(self) -> None:
        """Drop cached representations (called by the trainer after each update)."""
        self._cache = None
