"""Configuration dataclasses for the NMCDR model and the joint CDR trainer.

The defaults follow Section III.A.4 ("Parameter Settings") with sizes scaled
down for the synthetic CPU-only reproduction: the paper uses an embedding
dimension of 128, 512 matching neighbours and a batch size of 512 on an A100;
the reproduction defaults to 32 / 64 / 256 which preserve behaviour at a
fraction of the cost.  Every value is overridable per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

__all__ = ["NMCDRConfig", "TrainerConfig"]


@dataclass
class NMCDRConfig:
    """Hyper-parameters of the NMCDR architecture.

    Attributes
    ----------
    embedding_dim:
        Look-up table dimension ``D`` (Eq. 1).  The paper uses 128.
    hge_dim, igm_dim, cgm_dim, ref_dim:
        Transformation dimensions of the heterogeneous graph encoder, intra
        node matching, inter node matching and node complementing modules
        (``D_hge``, ``D_igm``, ``D_cgm``, ``D_ref``).  The paper sets all of
        them equal to ``D``; the same convention is kept here, so leaving them
        at ``None`` mirrors ``embedding_dim``.
    num_encoder_layers:
        Depth of the heterogeneous graph encoder.
    num_matching_layers:
        How many stacked intra+inter matching blocks to apply (the paper uses
        three graph aggregation layers in the matching module).
    gnn_kernel:
        ``"vanilla"`` (Eq. 2–4), ``"gcn"`` or ``"gat"``.
    head_threshold:
        ``K_head`` of Eq. 5 — users with more interactions are head users.
    max_matching_neighbors:
        Matching-neighbour sample size (512 in the paper, Fig. 3).
    companion_weights:
        ``w_1 .. w_4`` of Eq. 22 (per-stage companion losses).
    loss_weights:
        ``w_5 .. w_8`` of Eq. 24 (companion A, companion B, cls A, cls B).
    prediction_hidden:
        Hidden sizes of the stacked prediction MLP (Eq. 20).
    use_intra_matching / use_inter_matching / use_complementing / use_companion:
        Ablation switches corresponding to w/o-Igm, w/o-Cgm, w/o-Inc, w/o-Sup.
    """

    embedding_dim: int = 32
    hge_dim: Optional[int] = None
    igm_dim: Optional[int] = None
    cgm_dim: Optional[int] = None
    ref_dim: Optional[int] = None
    num_encoder_layers: int = 1
    num_matching_layers: int = 1
    gnn_kernel: str = "vanilla"
    head_threshold: int = 7
    max_matching_neighbors: Optional[int] = 64
    companion_weights: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    loss_weights: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    prediction_hidden: Tuple[int, ...] = (32,)
    dropout: float = 0.0
    use_intra_matching: bool = True
    use_inter_matching: bool = True
    use_complementing: bool = True
    use_companion: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_encoder_layers < 1:
            raise ValueError("num_encoder_layers must be >= 1")
        if self.num_matching_layers < 1:
            raise ValueError("num_matching_layers must be >= 1")
        if self.head_threshold < 0:
            raise ValueError("head_threshold must be non-negative")
        if len(self.companion_weights) != 4:
            raise ValueError(
                "companion_weights must have exactly four entries (w1..w4)",
            )
        if len(self.loss_weights) != 4:
            raise ValueError("loss_weights must have exactly four entries (w5..w8)")

    # Resolved transformation dimensions --------------------------------
    @property
    def resolved_hge_dim(self) -> int:
        return self.hge_dim or self.embedding_dim

    @property
    def resolved_igm_dim(self) -> int:
        return self.igm_dim or self.embedding_dim

    @property
    def resolved_cgm_dim(self) -> int:
        return self.cgm_dim or self.embedding_dim

    @property
    def resolved_ref_dim(self) -> int:
        return self.ref_dim or self.embedding_dim

    def variant(self, **overrides) -> "NMCDRConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **overrides)


@dataclass
class TrainerConfig:
    """Training-loop hyper-parameters shared by NMCDR and every baseline."""

    num_epochs: int = 15
    batch_size: int = 256
    learning_rate: float = 5e-3
    weight_decay: float = 1e-6
    negatives_per_positive: int = 1
    grad_clip_norm: Optional[float] = 5.0
    early_stopping_patience: Optional[int] = None
    eval_every: int = 0
    num_eval_negatives: int = 99
    verbose: bool = False
    #: When true the trainer enables the global profiler for the duration of
    #: ``fit`` and stores the phase report on the returned history.
    profile: bool = False
    #: When true, models exposing ``configure_subgraph_sampling`` (NMCDR and
    #: the graph baselines) train on induced k-hop subgraphs around each
    #: mini-batch instead of the full graph, making step cost O(batch).
    #: NMCDR builds each step's plan through its persistent per-epoch
    #: :class:`~repro.core.plan_schedule.PlanSchedule` (delta-updated seed
    #: sets, incremental k-hop expansion).  Evaluation always runs the exact
    #: full-graph forward.  Models without graph propagation ignore the
    #: switch (they are already O(batch)).
    sampled_subgraph_training: bool = False
    #: Hop count of the sampled subgraph; ``None`` resolves to the model's
    #: exactness depth (encoder layers, plus one when node complementing is
    #: enabled), which with ``subgraph_fanout=None`` keeps sampled training
    #: numerically exact.
    subgraph_num_hops: Optional[int] = None
    #: Per-hop neighbour cap for high-degree nodes; ``None`` means no cap
    #: (exact neighbourhoods).  Setting it bounds subgraph size at the cost
    #: of approximate propagation for truncated nodes.
    subgraph_fanout: Optional[int] = None
    #: Which step executor drives the optimisation step: ``"serial"`` (the
    #: seed-parity default, in-process) or ``"sharded"`` — the data-parallel
    #: :class:`~repro.core.sharded.ShardedStepExecutor`, which splits every
    #: joint batch across ``n_shards`` forked worker processes over
    #: shared-memory parameters and reduces gradients with a fixed-order
    #: sum before one Adam update.  Its data-plane payloads (dispatch index
    #: sets, activation tables, table gradients, loss terms) travel through
    #: the shared-memory exchange plane (:mod:`repro.core.exchange`); the
    #: worker pipes carry control headers only.
    executor: str = "serial"
    #: Worker-process count of the sharded executor (ignored when
    #: ``executor="serial"``).  ``1`` is the serial-replica mode: bit-exact
    #: against the serial executor while exercising the full process path.
    n_shards: int = 1
    #: Partition the matching-pool closure across the shards instead of
    #: replicating it into every shard's subgraph (requires
    #: ``executor="sharded"``).  Each step then runs the two-phase protocol
    #: of :class:`~repro.core.sharded.PoolShardedStepExecutor` — encode →
    #: activation all-gather → match/backward → gradient scatter → reduce —
    #: so per-shard cost follows ``batch + pool/n_shards`` at the price of
    #: one extra IPC round trip per step.  Replicated mode (the default)
    #: wins for small pools; pool sharding wins once the pool closure
    #: dominates per-shard work (see README "Distributed training").
    pool_sharding: bool = False
    #: Record each step's forward+backward into a flat replay program (one
    #: per plan signature) and replay it on subsequent steps instead of
    #: rebuilding the autograd graph: no per-step ``Tensor`` node allocation,
    #: no topological re-sort, activations/gradients reuse arena slabs.  A
    #: per-op guard falls back to eager execution and re-traces whenever a
    #: step diverges from its recording, so results are bit-identical to
    #: eager training (asserted in float64 by the ``traced`` test suite).
    #: Works with every executor — sharded workers each own a program cache.
    #: Requires ``dropout=0.0`` (per-module dropout draws cannot be rewound
    #: after a guard fallback).
    traced_steps: bool = False
    #: Learning-rate schedule applied once per epoch: ``None`` keeps the
    #: fixed rate of the paper, ``"step"`` decays by ``lr_gamma`` every
    #: ``lr_step_size`` epochs, ``"exponential"`` decays by ``lr_gamma``
    #: every epoch.
    lr_scheduler: Optional[str] = None
    lr_step_size: int = 5
    lr_gamma: float = 0.5
    #: Directory for training checkpoints (``None`` disables checkpointing).
    #: Each checkpoint snapshots the *complete* training state — parameters,
    #: Adam moments, scheduler/early-stopping state, every rng stream and the
    #: history — so a killed run resumed via ``CDRTrainer.fit(resume_from=...)``
    #: (or ``repro resume``) replays the uninterrupted run bit-identically.
    checkpoint_dir: Optional[str] = None
    #: Epoch cadence of checkpoint writes (every N completed epochs, after
    #: that epoch's evaluation); ``0`` disables epoch-boundary checkpoints.
    checkpoint_every: int = 1
    #: Step cadence of mid-epoch checkpoints (every N global steps);
    #: ``0`` (default) disables mid-epoch checkpoints.
    checkpoint_every_steps: int = 0
    #: Retention: keep only the newest K checkpoint files (``0`` keeps all).
    checkpoint_keep: int = 3
    #: Supervised sharded execution: how many times a dead or hung shard
    #: worker is respawned (with the in-flight step replayed from the
    #: parent's retained dispatch) before the failure is considered
    #: persistent.  ``0`` (default) keeps the PR-4 fail-fast contract: any
    #: worker death or hang raises immediately.
    worker_max_retries: int = 0
    #: Base backoff between respawn attempts, doubled per retry.
    worker_retry_backoff: float = 0.05
    #: Seconds the parent waits for one shard's step result before treating
    #: the worker as hung.
    worker_step_timeout: float = 600.0
    #: After the retry budget is exhausted, rebuild the executor at fewer
    #: shards (halving down to serial in-parent execution) from the last
    #: consistent state instead of raising — training completes, degraded.
    degrade_on_failure: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_epochs <= 0:
            raise ValueError("num_epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")
        if self.subgraph_num_hops is not None and self.subgraph_num_hops < 1:
            raise ValueError("subgraph_num_hops must be >= 1 or None")
        if self.subgraph_fanout is not None and self.subgraph_fanout < 1:
            raise ValueError("subgraph_fanout must be >= 1 or None")
        if self.executor not in ("serial", "sharded"):
            raise ValueError("executor must be 'serial' or 'sharded'")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.pool_sharding and self.executor != "sharded":
            raise ValueError("pool_sharding requires executor='sharded'")
        if self.lr_scheduler is not None:
            from ..optim.scheduler import SCHEDULER_NAMES

            if self.lr_scheduler not in SCHEDULER_NAMES:
                raise ValueError(
                    f"lr_scheduler must be None or one of {SCHEDULER_NAMES}"
                )
        if self.lr_step_size < 1:
            raise ValueError("lr_step_size must be >= 1")
        if self.lr_gamma <= 0:
            raise ValueError("lr_gamma must be positive")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_every_steps < 0:
            raise ValueError("checkpoint_every_steps must be >= 0")
        if self.checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be >= 0")
        if (
            self.checkpoint_dir is not None
            and not self.checkpoint_every
            and not self.checkpoint_every_steps
        ):
            raise ValueError(
                "checkpoint_dir is set but both checkpoint cadences are 0"
            )
        if self.worker_max_retries < 0:
            raise ValueError("worker_max_retries must be >= 0")
        if self.worker_retry_backoff < 0:
            raise ValueError("worker_retry_backoff must be >= 0")
        if self.worker_step_timeout <= 0:
            raise ValueError("worker_step_timeout must be positive")

    def variant(self, **overrides) -> "TrainerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)
