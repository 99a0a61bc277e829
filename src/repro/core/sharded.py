"""Sharded data-parallel step execution over shared-memory parameters.

:class:`ShardedStepExecutor` replaces the serial :class:`~repro.core.engine.
StepExecutor` without any training-loop changes (the PR-3 swap point): every
joint step is split into per-shard micro-batches (``user_id % n_shards``,
:mod:`repro.data.shard`), each shard worker — a forked process — localises
its micro-batch with the existing :class:`~repro.core.subgraph_plan.
SubgraphPlan` machinery and runs forward/backward on its own core, and the
parent combines the per-shard gradients with a fixed-order all-reduce-style
sum before one in-place Adam update.  Step payloads — micro-batches, the
step's matching pools and the loss terms — travel through the shared-memory
exchange plane (:mod:`repro.core.exchange`); the worker pipes carry control
headers only.  Every shard folds the whole pool closure into its own
subgraph, so no activations cross shards within a step.

Determinism / equivalence design
--------------------------------

The fixed-seed loss and metric stream is kept equivalent to the serial
executor by moving every rng consumer and every floating-point reduction to
a canonical place:

* **Parameters** live in one shared-memory block.  Workers alias their
  model's parameters to views of that block, the parent publishes updated
  values into it before dispatching a step, and the strict
  dispatch → compute → reduce → update lock-step means nobody reads while
  the parent writes.  Every shard therefore computes from bit-identical
  parameters; nothing about worker scheduling can leak into the numerics.
* **Matching pools** (the only rng consumed inside a training forward) are
  drawn once per step *in the parent*, in the exact full-forward order
  (:func:`~repro.core.subgraph_plan.sample_matching_pools`), and shipped to
  every worker.  The parent's sampler stream — and therefore mid-training
  evaluation — stays identical to a serial run, and workers consume no rng
  at all.
* **Losses** are reduced in canonical batch order: workers return the
  *pre-reduction* per-example loss terms, the parent scatters them back
  into the full batch's array layout and applies the same numpy reduction
  the serial executor's fused loss kernel applies.  The reported loss is
  therefore independent of ``n_shards`` given equal parameters.
* **Gradients** are summed shard-by-shard in fixed shard order
  (:func:`~repro.optim.reduce_gradient_shards`); parameters untouched by
  every shard keep ``grad=None`` exactly like the serial executor (the Adam
  moment buffers must not advance for them).

With ``n_shards=1`` the single worker replays the serial computation
verbatim (same graph, same kernels, pools injected by replay), so epoch
losses and validation metrics are bit-identical to the serial executor.
With ``n_shards>1`` each shard's forward runs over its own induced
subgraph; per-row stage outputs match the full forward to float64 exactness
(the PR-2 gate), while gradient contributions are necessarily *summed in a
different association order* than one fused full-batch backward — the
combined stream is therefore reproducible bit-for-bit run-to-run, and
equivalent to the serial stream at float64 ulp level (gated tightly in
``tests/test_sharded_executor.py``; see README "Distributed training" for
the precise guarantees).

Failure contract
----------------

``run_step`` never hangs on a dead worker: receives poll worker liveness
and a step deadline, and any worker error is re-raised in the parent with
the worker traceback attached.  :meth:`ShardedStepExecutor.close` is
idempotent, runs via ``weakref.finalize`` at garbage collection and
interpreter exit (so an executor crash mid-epoch cannot leak processes),
and escalates join → terminate → kill.  Workers are daemonic as a last
line of defence.  Parameter and gradient blocks are *named* POSIX shared
memory, each with its own ``weakref.finalize`` (which doubles as an atexit
hook) unlinking it from the creating process — an abandoned executor, a
``KeyboardInterrupt`` or an injected parent crash leaves no orphaned
``/dev/shm`` segment, and a hard ``SIGKILL`` is mopped up by Python's
``multiprocessing.resource_tracker``.

Supervision (opt-in)
--------------------

With ``max_retries > 0`` the fail-fast checks above become a *worker
supervisor*: a dead or hung shard worker is killed, re-forked (re-aliasing
the shared parameter block exactly like the original fork) and the
in-flight step is replayed from the parent's retained per-shard dispatch
log — the parent's rng and dispatch are authoritative, so the respawned
worker's step result is bit-identical to the never-failed one.  Retries
back off exponentially and are capped per shard per step.  A worker whose
failure exhausts the budget is stopped at once, so neither the re-raise
nor the degrade path waits on a hung worker's shutdown join; with
``degrade_on_failure`` an exhausted budget rebuilds the executor at half
the shards (down to one, and finally to in-parent serial execution) from
the last consistent state — parameters only ever advance after a fully
collected step, so no partial update can leak into the degraded run.
Every recovery event is counted in :attr:`fault_events` (surfaced in
``TrainingHistory`` and the profiling report).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
import traceback
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.shard import ShardSplit, split_joint_batch
from ..optim import Optimizer, clip_grad_norm, reduce_gradient_shards
from ..profiling import profiler
from . import faults
from .engine import StepExecutor
from .exchange import CommsStats, ExchangeClient, ExchangePlane, _release_shm
from .task import DOMAIN_KEYS

__all__ = [
    "ShardLoss",
    "WorkerDied",
    "WorkerTimeout",
    "ShardedStepExecutor",
]


class WorkerDied(RuntimeError):
    """A shard worker exited (or broke its pipe) mid-step."""


class WorkerTimeout(RuntimeError):
    """A shard worker blew through the step deadline (presumed hung)."""

#: Wire commands of the parent → worker pipe protocol.  ``_STEP`` dispatches
#: a step as a tiny control envelope whose data-plane payloads live in the
#: shm exchange plane (see :mod:`repro.core.exchange`); ``_STOP`` ends the
#: worker loop.
_STEP, _STOP = "step", "stop"


@dataclass
class ShardLoss:
    """One shard's contribution to a training step.

    Models implement ``compute_shard_loss(batches, pools=, full_sizes=,
    localize=, include_extra=) -> ShardLoss`` (see :class:`repro.core.NMCDR`
    and :class:`repro.baselines.BaselineModel`); the executor's worker
    backwards ``loss`` and ships the rest to the parent.
    """

    #: Backward target of this shard (``None`` when the shard's micro-batch
    #: is empty in every domain and the model has no extra losses).
    loss: Optional[object] = None
    #: Per-domain *raw* pre-reduction loss-term arrays, aligned with the
    #: shard's micro-batch rows (stage-blocked for NMCDR, one row per
    #: example for the pointwise baselines), in their natural pre-cast
    #: dtype so the parent's reduction rounds exactly once, like the
    #: serial fused kernel.
    terms: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Per-domain canonical numpy reduction (``"sum"`` or ``"mean"``) the
    #: parent applies to the reassembled full-batch array.
    reductions: Dict[str, str] = field(default_factory=dict)
    #: Dtype the serial kernel would store each reduced scalar in (the
    #: engine dtype); the parent casts before the cross-domain add.
    value_dtype: Optional[str] = None
    #: Model-level extra losses (computed on shard 0 only), as a float.
    extra: Optional[float] = None
    #: Per-parameter "this shard produced a gradient" mask (set by the
    #: executor when a step result reaches the parent, not by models).
    present: Optional[np.ndarray] = None


#: Monotonic suffix keeping this process's shm segment names unique.
#: (``_release_shm`` — the view-tolerant close + creator-only unlink shared
#: with the exchange plane's regions — now lives in :mod:`.exchange`.)
_shm_counter = itertools.count()


class _SharedBlock:
    """One named shared-memory block with 64-byte-aligned array views.

    Forked workers inherit the mapping (and the views built over it)
    directly — nothing is pickled or re-attached, exactly like the
    anonymous blocks this replaces — but the segment is *named*, so its
    lifetime is observable and cleanup is enforceable: the creating process
    unlinks it via :meth:`release`, via ``weakref.finalize`` when the
    executor is dropped, and via the finalizer's atexit hook on interpreter
    exit; a SIGKILLed parent is cleaned up by the resource tracker.
    """

    def __init__(self, specs: List[Tuple[Tuple[int, ...], np.dtype]]) -> None:
        offsets = []
        cursor = 0
        for shape, dtype in specs:
            cursor = (cursor + 63) & ~63
            offsets.append(cursor)
            cursor += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        name = f"repro-shm-{os.getpid()}-{next(_shm_counter)}"
        self.shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(int(cursor), 1)
        )
        self.name = self.shm.name
        self.views = [
            np.frombuffer(
                self.shm.buf,
                dtype=dtype,
                count=int(np.prod(shape, dtype=np.int64)),
                offset=offset,
            ).reshape(shape)
            for (shape, dtype), offset in zip(specs, offsets)
        ]
        self._finalizer = weakref.finalize(self, _release_shm, self.shm, os.getpid())

    def release(self) -> None:
        """Unlink the segment now; idempotent (the finalizer runs once)."""
        self.views = []
        self._finalizer()


def _stop_worker(worker) -> None:
    """Stop one worker now: terminate → join → kill.  Idempotent."""
    if worker.is_alive():
        worker.terminate()
        worker.join(timeout=2.0)
    if worker.is_alive():  # pragma: no cover — terminate should suffice
        worker.kill()
        worker.join(timeout=2.0)


def _shutdown_workers(workers, connections) -> None:
    """Stop worker processes; join → terminate → kill.  Idempotent."""
    for connection in connections:
        try:
            connection.send((_STOP,))
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + 5.0
    for worker in workers:
        worker.join(timeout=max(0.1, deadline - time.monotonic()))
    for worker in workers:
        _stop_worker(worker)
    for connection in connections:
        try:
            connection.close()
        except OSError:  # pragma: no cover — already closed
            pass


def _attach_worker(model, parameters, param_views, localize) -> None:
    """Alias parameters onto the shared block and configure localisation.

    Runs in a forked child, so ``model`` and ``parameters`` are inherited
    object references; the parameter data is re-aliased onto the shared
    block so parent-side updates become visible without copies.  With
    ``localize`` each shard runs exactness-depth subgraph localisation so
    its step cost follows its micro-batch, not the graph (the parent model
    stays untouched — this is the fork's private copy).
    """
    for parameter, view in zip(parameters, param_views):
        parameter.data = view
    if (
        localize
        and model.capabilities().subgraph_sampling
        and not model.subgraph_sampling_enabled
    ):
        model.configure_subgraph_sampling(True)


def _publish_worker_gradients(parameters, grad_views: Sequence[np.ndarray]) -> np.ndarray:
    """Copy parameter gradients into the shard's shm block; return presence."""
    present = np.zeros(len(parameters), dtype=bool)
    for index, (parameter, view) in enumerate(zip(parameters, grad_views)):
        if parameter.grad is not None:
            np.copyto(view, parameter.grad)
            present[index] = True
    return present


def _make_worker_runtime(model, traced: bool):
    """Per-worker trace runtime (each shard owns its own program cache)."""
    if not traced:
        return None
    from ..tensor import trace

    trace.check_traceable(model)
    runtime = trace.TraceRuntime()
    runtime.install()
    return runtime


def _runtime_stats(runtime) -> Optional[Dict]:
    """Cumulative stats payload piggybacked on each step's done message."""
    if runtime is None:
        return None
    return dict(runtime.stats.as_dict(), arena=runtime.arena.as_dict())


def _trace_section_key(model, micro_batches) -> Tuple:
    """Section key for one worker step: structure, not per-batch content."""
    from ..tensor import engine as tensor_engine
    from ..tensor.trace import model_trace_signature

    present = tuple(
        sorted(
            key
            for key, batch in micro_batches.items()
            if batch is not None and len(batch) > 0
        )
    )
    return ("shard", model_trace_signature(model), present, tensor_engine.get_dtype().str)


def _close_inherited_fds(parent_fds: Sequence[int]) -> None:
    """Close fork-inherited parent-side pipe fds (worker startup hygiene).

    A worker holding a copy of any parent-end fd — its own or an earlier
    shard's — keeps that pipe readable after the training parent dies, so
    recv() never raises EOFError and the worker leaks (with its shm).
    """
    for fd in parent_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover — fd already gone
            pass


def _worker_main(
    shard_index: int,
    connection,
    parent_fds: Sequence[int],
    model,
    parameters,
    param_views: Sequence[np.ndarray],
    grad_views: Sequence[np.ndarray],
    localize: bool,
    traced: bool = False,
) -> None:
    """Shard worker loop: recv step → forward/backward → publish gradients.

    With ``traced`` the forward+backward runs as one traced section;
    zero-grad and the gradient publish stay eager.  The done message is a
    control header whose term/presence arrays live in the shard's shm reply
    slot.
    """
    client = ExchangeClient()
    try:
        _close_inherited_fds(parent_fds)
        _attach_worker(model, parameters, param_views, localize)
        runtime = _make_worker_runtime(model, traced)
        step_counter = 0
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                return
            if message[0] == _STOP:
                return
            env = message[1]
            client.begin_step(env)
            # Dispatch payloads are copied out of the slot: plan caches
            # retain batch/pool index arrays across steps, past the slot's
            # double-buffer lifetime.
            micro_batches = client.unpack(env["micro"], copy=True)
            bcast = env["bcast"]
            pools = client.unpack(bcast, copy=True) if bcast is not None else None
            full_sizes = env["full_sizes"]
            # Worker-local step index (restarts at 0 in a respawned worker,
            # so one-shot step-matched faults cannot re-fire during replay).
            faults.worker_step(shard_index, step_counter)
            step_counter += 1
            try:
                for parameter in parameters:
                    parameter.zero_grad()

                def forward_backward():
                    result = model.compute_shard_loss(
                        micro_batches,
                        pools=pools,
                        full_sizes=full_sizes,
                        localize=localize,
                        include_extra=shard_index == 0,
                    )
                    if result.loss is not None:
                        result.loss.backward()
                    return result

                if runtime is None:
                    result = forward_backward()
                else:
                    from ..tensor.trace import model_rng_sources

                    result = runtime.run_section(
                        _trace_section_key(model, micro_batches),
                        forward_backward,
                        rng_sources=model_rng_sources(model),
                    )
                present = _publish_worker_gradients(parameters, grad_views)
                header = client.pack_reply(
                    {
                        "terms": result.terms,
                        "reductions": result.reductions,
                        "extra": result.extra,
                        "value_dtype": result.value_dtype,
                        "present": present,
                    }
                )
                connection.send(
                    ("done", header, _runtime_stats(runtime), client.take_grow_request())
                )
            except BaseException as error:  # noqa: BLE001 — forwarded to the parent
                connection.send(("error", repr(error), traceback.format_exc()))
    finally:
        client.close()
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass


class ShardedStepExecutor(StepExecutor):
    """Data-parallel :class:`StepExecutor` over ``n_shards`` forked workers.

    Parameters
    ----------
    model:
        Any model implementing the shard protocol (``compute_shard_loss``;
        optionally ``sample_step_pools`` / ``configure_subgraph_sampling``).
        :class:`repro.core.NMCDR` and the pointwise baselines qualify.
    optimizer:
        The parent-side optimiser; its parameter list is the canonical
        ordering of the shared parameter/gradient blocks.
    n_shards:
        Worker process count.  ``1`` is the serial-replica mode (bit-exact
        against the serial executor, still exercising the full IPC path).
    step_timeout:
        Seconds the parent waits for one shard's step result before raising
        (a deadlocked worker must fail the run, not hang it).
    """

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        grad_clip_norm: Optional[float] = None,
        n_shards: int = 2,
        step_timeout: float = 600.0,
        traced: bool = False,
        max_retries: int = 0,
        retry_backoff: float = 0.05,
        degrade_on_failure: bool = False,
    ) -> None:
        super().__init__(model, optimizer, grad_clip_norm)
        # Tracing happens inside the workers (each owns a program cache);
        # the parent never installs a runtime, it only aggregates stats.
        self.traced = bool(traced)
        self._shard_trace_stats: Dict[int, Dict] = {}
        if self.traced:
            from ..tensor.trace import check_traceable

            check_traceable(model)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if not model.capabilities().sharding:
            raise TypeError(
                f"{type(model).__name__} does not declare the sharding "
                "capability (its loss cannot be decomposed into per-shard "
                "losses deterministically); use the serial StepExecutor"
            )
        if getattr(getattr(model, "config", None), "dropout", 0.0):
            raise ValueError(
                "sharded execution requires dropout=0 (per-worker dropout masks "
                "would diverge from the serial rng stream)"
            )
        self.n_shards = int(n_shards)
        self.step_timeout = float(step_timeout)
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.degrade_on_failure = bool(degrade_on_failure)
        #: Recovery counters, merged into ``TrainingHistory`` by the engine
        #: and into the profiling report at close.  Never reset by open() so
        #: degrade-and-reopen cycles keep accumulating.
        self.fault_events: Dict[str, int] = {
            "deaths": 0,
            "timeouts": 0,
            "respawns": 0,
            "degradations": 0,
        }
        self._workers: List = []
        self._connections: List = []
        self._param_views: List[np.ndarray] = []
        self._grad_views: List[List[np.ndarray]] = []
        self._blocks: List[_SharedBlock] = []
        self._finalizer = None
        self._context = None
        self._localize = False
        #: Per-shard parent→worker message log and response count for the
        #: step in flight — the replay source for respawned workers.
        self._step_log: List[List[tuple]] = []
        self._responses: List[int] = []
        self._step_retries: List[int] = []
        #: Shared-memory exchange plane (the zero-copy data plane); pipes
        #: carry only control headers.  Lives from open() to
        #: _teardown_workers(); the stats object outlives it (degrade-and-
        #: reopen cycles keep accumulating into one ``comms`` section).
        self.comms_stats = CommsStats()
        self._plane: Optional[ExchangePlane] = None
        #: Executor-global step counter: drives the exchange plane's
        #: double-buffer flip and the ``exchange_overflow`` fault point.
        self._global_step = 0
        #: Final cumulative trace-stat snapshots of workers that no longer
        #: run (died + respawned, or torn down by a degrade), kept so the
        #: merged ``repro profile --traced`` report neither loses nor
        #: double-counts a replaced worker's counters.
        self._retired_trace_stats: List[Dict] = []
        #: After the degrade ladder bottoms out: run steps in-parent.
        self._serial_fallback = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return bool(self._workers)

    def open(self) -> None:
        """Allocate shared memory and fork the shard workers.

        Called lazily by :meth:`run_step` and eagerly by the training engine
        when a fit starts.
        """
        if self._workers:
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover — non-POSIX platforms
            raise RuntimeError(
                "ShardedStepExecutor requires the fork start method (POSIX)"
            ) from error
        self._context = context
        parameters = self.optimizer.parameters
        specs = [(p.data.shape, p.data.dtype) for p in parameters]
        param_block = _SharedBlock(specs)
        self._param_views = param_block.views
        self._blocks = [param_block]
        self._grad_views = []
        for _ in range(self.n_shards):
            grad_block = _SharedBlock(specs)
            self._blocks.append(grad_block)
            self._grad_views.append(grad_block.views)
        self._publish_parameters()
        self._plane = ExchangePlane(self.n_shards, self.comms_stats)
        self._plane.open()

        self._localize = self.n_shards > 1
        workers, connections = [], []
        # Published before the fork loop so _fork_worker can hand every
        # already-started shard's parent-end fd to the next fork for
        # closing (see the fd-hygiene note there).
        self._workers, self._connections = workers, connections
        try:
            for shard_index in range(self.n_shards):
                worker, parent_end = self._fork_worker(shard_index)
                workers.append(worker)
                connections.append(parent_end)
        except BaseException:
            # A mid-loop failure (fd exhaustion, fork error) must not leave
            # already-started workers running or the executor half-open: the
            # `if self._workers` guard above would treat a partial set as
            # fully open and run_step would dispatch short.
            _shutdown_workers(workers, connections)
            for shared_block in self._blocks:
                shared_block.release()
            if self._plane is not None:
                self._plane.close()
                self._plane = None
            self._param_views, self._grad_views, self._blocks = [], [], []
            self._workers, self._connections = [], []
            raise
        self._step_log = [[] for _ in range(self.n_shards)]
        self._responses = [0] * self.n_shards
        self._step_retries = [0] * self.n_shards
        # The finalizer holds the *live* list objects (not copies): a
        # respawn replaces entries in place, so cleanup at GC/exit always
        # targets the current worker set, never a dead predecessor's.
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, workers, connections
        )

    def _fork_worker(self, shard_index: int):
        """Fork one shard worker; shared by open() and respawn."""
        parent_end, child_end = self._context.Pipe(duplex=True)
        # Every parent-side pipe fd open at fork time is inherited by the
        # child, *including a copy of this worker's own parent end* (the
        # local above).  The child must close those copies at startup:
        # otherwise a worker blocked in recv() keeps its own pipe's peer
        # alive and never sees EOF when the training parent is killed —
        # an orphaned worker pinning its shm segments forever.
        parent_fds = [parent_end.fileno()]
        for connection in self._connections:
            try:
                parent_fds.append(connection.fileno())
            except OSError:  # pragma: no cover — already closed
                pass
        worker = self._context.Process(
            target=_worker_main,
            args=(
                shard_index,
                child_end,
                parent_fds,
                self.model,
                self.optimizer.parameters,
                self._param_views,
                self._grad_views[shard_index],
                self._localize,
                self.traced,
            ),
            name=f"repro-shard-{shard_index}",
            daemon=True,
        )
        worker.start()
        child_end.close()
        return worker, parent_end

    def _retire_trace_stats(self) -> None:
        """Move live per-shard cumulative snapshots to the retired list."""
        self._retired_trace_stats.extend(self._shard_trace_stats.values())
        self._shard_trace_stats = {}

    def _teardown_workers(self) -> None:
        """Stop workers and release shm without finalising stats (degrade path)."""
        self._retire_trace_stats()
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer()  # weakref.finalize runs at most once
        self._workers, self._connections = [], []
        self._grad_views, self._param_views = [], []
        blocks, self._blocks = self._blocks, []
        for shared_block in blocks:
            shared_block.release()
        if self._plane is not None:
            self._plane.close()
            self._plane = None

    def close(self) -> None:
        """Shut every worker down; idempotent and safe to call at any time."""
        self._teardown_workers()
        if self._retired_trace_stats:
            from ..tensor.trace import TraceStats

            # One snapshot per worker *incarnation*: each is that worker's
            # own cumulative count, so summing never double-counts, and a
            # died worker's last done-message snapshot is retained rather
            # than overwritten by its (fresh-started) replacement.
            self.trace_stats = TraceStats.merge(self._retired_trace_stats)
            profiler.record_section("trace", self.trace_stats)
            self._retired_trace_stats = []
        if any(self.fault_events.values()):
            profiler.record_section("faults", dict(self.fault_events))
        if any(
            entry["messages"] for entry in self.comms_stats.rounds.values()
        ):
            profiler.record_section("comms", self.comms_stats.as_section())

    def __enter__(self) -> "ShardedStepExecutor":
        self.open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the step
    # ------------------------------------------------------------------
    def _publish_parameters(self) -> None:
        """Copy current parameter values into the shared block."""
        for parameter, view in zip(self.optimizer.parameters, self._param_views):
            if parameter.data is not view:
                np.copyto(view, parameter.data)

    def _receive(self, shard_index: int):
        connection = self._connections[shard_index]
        worker = self._workers[shard_index]
        deadline = time.monotonic() + self.step_timeout
        while not connection.poll(0.05):
            if not worker.is_alive():
                raise WorkerDied(
                    f"shard worker {shard_index} died (exit code "
                    f"{worker.exitcode}) without returning a step result"
                )
            if time.monotonic() > deadline:
                raise WorkerTimeout(
                    f"shard worker {shard_index} timed out after "
                    f"{self.step_timeout:.0f}s"
                )
        try:
            return connection.recv()
        except (EOFError, OSError) as error:
            raise WorkerDied(
                f"shard worker {shard_index} closed its pipe mid-step"
            ) from error

    # ------------------------------------------------------------------
    # the worker supervisor
    # ------------------------------------------------------------------
    def _begin_step(self) -> None:
        """Reset the per-step replay log and retry budget."""
        self._step_log = [[] for _ in range(self.n_shards)]
        self._responses = [0] * self.n_shards
        self._step_retries = [0] * self.n_shards

    def _send_supervised(self, shard_index: int, message: tuple) -> None:
        """Log and send one parent→worker message, recovering on a dead pipe."""
        self._step_log[shard_index].append(message)
        try:
            self._connections[shard_index].send(message)
            return
        except (BrokenPipeError, OSError):
            error = WorkerDied(
                f"shard worker {shard_index} is gone (exit code "
                f"{self._workers[shard_index].exitcode}); cannot dispatch step"
            )
        while True:
            self._prepare_respawn(shard_index, error)
            try:
                # The failed message is already in the log, so a successful
                # replay leaves it delivered and unanswered — exactly the
                # state a plain send would have produced.
                self._replay_step(shard_index)
                return
            except (WorkerDied, WorkerTimeout) as next_error:
                error = next_error

    def _receive_supervised(self, shard_index: int):
        """Receive one worker response, respawning and replaying on failure."""
        pending_replay = False
        while True:
            try:
                if pending_replay:
                    self._replay_step(shard_index)
                    pending_replay = False
                message = self._receive(shard_index)
                self._responses[shard_index] += 1
                return message
            except (WorkerDied, WorkerTimeout) as error:
                self._prepare_respawn(shard_index, error)
                pending_replay = True

    def _prepare_respawn(self, shard_index: int, error: Exception) -> None:
        """Count the failure and fork a replacement, or re-raise over budget."""
        self.fault_events[
            "timeouts" if isinstance(error, WorkerTimeout) else "deaths"
        ] += 1
        attempt = self._step_retries[shard_index]
        if attempt >= self.max_retries:
            # Stop a hung worker here: close() and the degrade path would
            # otherwise wait out _shutdown_workers' whole join grace on it.
            _stop_worker(self._workers[shard_index])
            raise error
        self._step_retries[shard_index] = attempt + 1
        if self.retry_backoff:
            time.sleep(self.retry_backoff * (2**attempt))
        # Respawned workers inherit the fault module's state through fork;
        # advancing the generation keeps one-shot injected faults from
        # re-firing in the replacement (see repro.core.faults).
        faults.mark_respawn()
        _stop_worker(self._workers[shard_index])
        try:
            self._connections[shard_index].close()
        except OSError:  # pragma: no cover — already closed
            pass
        # Retire the dead incarnation's last cumulative trace snapshot so
        # the replacement's (restarting-from-zero) counters don't overwrite
        # it in the merged report.
        stats = self._shard_trace_stats.pop(shard_index, None)
        if stats is not None:
            self._retired_trace_stats.append(stats)
        worker, parent_end = self._fork_worker(shard_index)
        # In-place so the close finalizer's captured lists stay current.
        self._workers[shard_index] = worker
        self._connections[shard_index] = parent_end
        self.fault_events["respawns"] += 1

    def _replay_step(self, shard_index: int) -> None:
        """Re-drive the in-flight step on a freshly respawned worker.

        The parent's retained dispatch log is authoritative: every logged
        message is re-sent in order and the responses the parent had
        already consumed before the failure are received again and
        discarded (the recomputation is bit-identical — same shared
        parameters, same parent-drawn pools, same micro-batch).  The strict
        1:1 send/receive alternation of the wire protocol makes the
        interleaving deadlock-free: at most one response is ever
        outstanding.  On return the worker is exactly where its predecessor
        was when it failed.
        """
        log = self._step_log[shard_index]
        drained = self._responses[shard_index]
        connection = self._connections[shard_index]
        for index, message in enumerate(log):
            try:
                connection.send(message)
            except (BrokenPipeError, OSError) as error:
                raise WorkerDied(
                    f"shard worker {shard_index} died again during step replay"
                ) from error
            if index < drained:
                reply = self._receive(shard_index)
                if reply[0] == "error":
                    self._raise_worker_failure(shard_index, reply)

    def _degrade(self) -> None:
        """Drop to fewer shards (ultimately in-parent serial) and reopen.

        Parameters only advance after a fully collected step, so the
        executor state at this point is the last consistent one; the
        in-flight step is re-run at the reduced width from identical
        parameters and the already-drawn pools.
        """
        self.fault_events["degradations"] += 1
        self._teardown_workers()
        if self.n_shards > 1:
            self.n_shards = max(1, self.n_shards // 2)
            self.open()
        else:
            self._serial_fallback = True

    def _run_serial_step(self, batches, pools) -> float:
        """In-parent execution — the degrade ladder's final rung.

        Replays the serial executor's semantics through the shard protocol
        with one full-width micro-batch, so loss assembly and gradient
        handling stay on the exact code path the equivalence gates cover.
        """
        split = split_joint_batch(batches, 1)
        self.optimizer.zero_grad()
        result = self.model.compute_shard_loss(
            split.micro_batches[0],
            pools=pools,
            full_sizes=split.full_sizes,
            localize=False,
            include_extra=True,
        )
        if result.loss is not None:
            result.loss.backward()
        with profiler.scope("train/optimizer"):
            if self.grad_clip_norm is not None:
                clip_grad_norm(self.model.parameters(), self.grad_clip_norm)
            self.optimizer.step()
        self.model.invalidate_cache()
        return self._assemble_loss(split, [result])

    def _raise_worker_failure(self, shard_index: int, message) -> None:
        raise RuntimeError(
            f"shard worker {shard_index} failed: {message[1]}\n"
            f"--- worker traceback ---\n{message[2]}"
        )

    def _collect(self) -> List[ShardLoss]:
        """Receive every shard's step result.

        Each reply is ``("done", header, trace_stats, grow)``, its arrays
        living in the shard's shm reply slot.
        """
        results: List[ShardLoss] = []
        for shard_index in range(self.n_shards):
            message = self._receive_supervised(shard_index)
            if message[0] == "error":
                self._raise_worker_failure(shard_index, message)
            _, header, trace_stats, grow = message
            self._plane.request_grow(grow)
            payload = self._plane.unpack(header, "loss")
            if trace_stats is not None:
                self._shard_trace_stats[shard_index] = trace_stats
            results.append(
                ShardLoss(
                    terms=payload["terms"],
                    reductions=payload["reductions"],
                    extra=payload["extra"],
                    value_dtype=payload["value_dtype"],
                    present=payload["present"],
                )
            )
        return results

    def run_step(self, batches) -> float:
        try:
            if not self._serial_fallback:
                self.open()
            # Pools are drawn exactly once per step, *before* any attempt:
            # retries and degrades re-use them, so the parent rng stream —
            # and everything downstream of it — is independent of failures.
            pools = (
                self.model.sample_step_pools()
                if self.model.capabilities().matching_pools
                else None
            )
            while True:
                if self._serial_fallback:
                    return self._run_serial_step(batches, pools)
                with profiler.scope("train/publish"):
                    self._publish_parameters()
                self._begin_step()
                try:
                    return self._attempt_step(batches, pools)
                except (WorkerDied, WorkerTimeout):
                    if not self.degrade_on_failure:
                        raise
                    # The retry budget for this step is exhausted; rebuild
                    # narrower from the last consistent state and re-run it.
                    self._degrade()
        except Exception:
            # Leave no worker behind when a step fails; the engine's finally
            # block would close us anyway, but callers driving the executor
            # directly (profiling, tests) must not leak processes either.
            self.close()
            raise

    def _begin_plane_step(self, reply_bound: Optional[int] = None) -> int:
        """Advance the plane to this step's buffer slot; apply regrows.

        Runs before any message of the step is sent (the respawn-replay log
        must never reference a replaced segment) and services the
        ``exchange_overflow`` fault point by force-regrowing every region —
        fresh segment names, bumped generations — mid-epoch.
        """
        step_index = self._global_step
        self._global_step += 1
        forced = faults.fire("exchange_overflow", step=step_index) is not None
        self._plane.begin_step(
            step_index, reply_bound=reply_bound, force_regrow=forced
        )
        return step_index

    def _dispatch_plane(self, split: ShardSplit, step_index: int, pools) -> None:
        """Send every shard its step envelope (control header over the pipe)."""
        plane = self._plane
        bcast = plane.pack("bcast", pools, "broadcast") if pools is not None else None
        for shard_index in range(self.n_shards):
            env = {
                "step": step_index,
                "slot": plane.slot,
                "micro": plane.pack(
                    f"p2w{shard_index}",
                    split.micro_batches[shard_index],
                    "dispatch",
                ),
                "bcast": bcast,
                "full_sizes": split.full_sizes,
                "reply": plane.descriptor(f"w2p{shard_index}"),
            }
            self._send_supervised(shard_index, (_STEP, env))

    def _reply_bound(self, split: ShardSplit) -> int:
        """Generous upper bound on one shard's reply-slot bytes.

        Loss-term layouts are model-private (stage-blocked for NMCDR), so
        the bound assumes up to 16 blocks of 8-byte terms over the *full*
        batch per domain plus the presence mask and alignment slack.  An
        underestimate is not an error — the reply rides the pipe once and
        the region regrows at the next step begin.
        """
        bound = 8192 + 64 * (len(self.optimizer.parameters) + 1)
        for size in split.full_sizes.values():
            bound += 128 * (int(size) + 8)
        return bound

    def _attempt_step(self, batches, pools) -> float:
        """One supervised execution of the step protocol."""
        split = split_joint_batch(batches, self.n_shards)
        with profiler.scope("train/dispatch"):
            step_index = self._begin_plane_step(self._reply_bound(split))
            self._dispatch_plane(split, step_index, pools)
        with profiler.scope("train/shard_wait"):
            results = self._collect()
        with profiler.scope("train/reduce"):
            reduce_gradient_shards(
                self.optimizer.parameters,
                self._grad_views,
                [result.present for result in results],
            )
        with profiler.scope("train/optimizer"):
            if self.grad_clip_norm is not None:
                clip_grad_norm(self.model.parameters(), self.grad_clip_norm)
            self.optimizer.step()
        self.model.invalidate_cache()
        return self._assemble_loss(split, results)

    def _assemble_loss(self, split: ShardSplit, results: Sequence[ShardLoss]) -> float:
        """Reduce per-shard loss terms in canonical (serial) batch order.

        The raw (pre-cast) terms are scattered back into the full batch's
        array layout, reduced with the serial kernel's own numpy reduction,
        and only then cast to the engine dtype — one rounding, exactly
        where the serial executor rounds — before the cross-domain add.
        """
        value_dtype = next(
            (result.value_dtype for result in results if result.value_dtype), None
        )
        total = None

        def accumulate(total, value):
            if value_dtype is not None:
                value = np.asarray(value).astype(value_dtype)
            return value if total is None else total + value

        for key in DOMAIN_KEYS:
            full_size = split.full_sizes.get(key)
            if not full_size:
                continue
            contributions = [
                (shard_index, result.terms[key])
                for shard_index, result in enumerate(results)
                if key in result.terms
            ]
            if not contributions:  # pragma: no cover — non-empty batches always land
                continue
            first_shard, first_terms = contributions[0]
            shard_rows = split.positions[key][first_shard].size
            stage_blocks = first_terms.shape[0] // max(shard_rows, 1)
            full_terms = np.empty(
                (stage_blocks * full_size,) + first_terms.shape[1:], dtype=first_terms.dtype
            )
            for shard_index, terms in contributions:
                rows = split.positions[key][shard_index]
                micro_size = rows.size
                for block in range(stage_blocks):
                    full_terms[block * full_size + rows] = terms[
                        block * micro_size : (block + 1) * micro_size
                    ]
            reduction = results[contributions[0][0]].reductions[key]
            value = full_terms.sum() if reduction == "sum" else full_terms.mean()
            total = accumulate(total, value)
        for result in results:
            if result.extra is not None:
                total = accumulate(total, result.extra)
        if total is None:
            raise ValueError("run_step needs at least one non-empty batch")
        return float(total)
