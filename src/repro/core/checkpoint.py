"""Deterministic training checkpoints: snapshot, atomic write, bit-exact resume.

A checkpoint captures the *complete* training state of a
:class:`~repro.core.engine.TrainingEngine` run:

* model parameters and the Adam moment buffers (plus ``step_count``/``lr``);
* the LR-scheduler epoch and the early-stopping counter;
* every rng stream a step consumes — the per-domain loader generators (as
  snapshotted by the data pipeline around each epoch) and the model's
  step generators (:func:`repro.tensor.trace.model_rng_sources`, e.g.
  NMCDR's matching-pool sampler);
* the :class:`~repro.core.engine.TrainingHistory` including the
  early-stopping best state;
* the loop position: next epoch, steps already executed inside it, the
  partial epoch-loss accumulator and the global step counter.

Because the training engine's numerics are pure functions of (parameters,
optimiser state, rng streams, batch stream) — the repo-wide determinism
contract every executor is gated on — restoring all of the above and
replaying the loop from the recorded position produces **bit-identical**
float64 losses, metrics and final parameters to the uninterrupted run
(gated in ``tests/test_checkpoint_resume.py`` for the serial, sharded and
pool-sharded executors).

File format
-----------

One ``.npz`` archive per checkpoint: a JSON ``meta`` entry (format version,
position, rng states, scalar state, config fingerprint, payload digest) plus
``param::<name>``, ``adam_m::<i>`` / ``adam_v::<i>`` and ``best::<name>``
arrays.  Writes are atomic — temp file in the same directory, flush+fsync,
``os.replace`` — so a crash mid-write (fault-injected in the test suite) can
never leave a half-written file under a checkpoint name; retention keeps the
newest ``keep`` files.  Loads verify the format version, the required keys
and a SHA-256 digest over every array, and raise :class:`CheckpointError`
with a clear message on any mismatch — never a silent partial restore.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from . import faults
from .engine import Callback, EngineContext, TrainingHistory

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "ResumeState",
    "TrainingCheckpoint",
    "checkpoint_path",
    "list_checkpoints",
    "latest_checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "restore_training_state",
    "without_retired_fields",
    "CheckpointCallback",
]

#: Schema version of the checkpoint archive; bumped on incompatible changes.
CHECKPOINT_VERSION = 1

_FILE_PREFIX = "ckpt"

#: TrainerConfig fields that do not influence the training numerics and are
#: therefore free to differ between the checkpointing and the resuming run.
_VOLATILE_CONFIG_FIELDS = frozenset(
    {
        "verbose",
        "profile",
        "checkpoint_dir",
        "checkpoint_every",
        "checkpoint_every_steps",
        "checkpoint_keep",
        "worker_max_retries",
        "worker_retry_backoff",
        "worker_step_timeout",
        "degrade_on_failure",
    }
)

#: TrainerConfig fields of earlier versions that only chose between
#: implementations gated numerically identical (per-step vs scheduled
#: subgraph plans, pickled pipes vs the shm exchange plane, a read-ahead
#: data-pipeline thread vs none).  A saved ``run.json`` trainer dict or
#: checkpoint fingerprint naming them still describes the same run, so
#: readers drop them (:func:`without_retired_fields`).
_RETIRED_CONFIG_FIELDS = frozenset(
    {"scheduled_subgraph_plans", "shm_exchange", "prefetch_epochs"}
)

#: History fields serialised verbatim into the meta blob (JSON round-trips
#: Python floats exactly, so the restored accumulators stay bit-identical).
_HISTORY_SCALARS = (
    "best_epoch",
    "best_validation_score",
    "train_seconds_per_batch",
    "num_batches",
    "step_seconds_total",
    "data_prep_seconds_total",
    "fit_wall_seconds",
    "worker_deaths",
    "worker_timeouts",
    "worker_respawns",
    "executor_degradations",
    "checkpoints_written",
)
_HISTORY_LISTS = (
    "epoch_losses",
    "validation_metrics",
    "epoch_wall_seconds",
    "learning_rates",
)


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, parsed or validated."""


@dataclass
class ResumeState:
    """Loop position a restored run continues from."""

    #: Epoch index the resumed loop enters first.
    next_epoch: int
    #: Steps of that epoch already executed (replayed, not re-run).
    steps_into_epoch: int
    #: Global step counter at the checkpoint.
    total_steps: int
    #: Partial epoch-loss sum accumulated over the already-executed steps.
    epoch_loss: float = 0.0


@dataclass
class TrainingCheckpoint:
    """In-memory form of one checkpoint archive."""

    meta: Dict
    parameters: Dict[str, np.ndarray]
    adam_m: List[np.ndarray]
    adam_v: List[np.ndarray]
    best_state: Optional[Dict[str, np.ndarray]] = None
    path: Optional[Path] = None

    @property
    def resume_state(self) -> ResumeState:
        position = self.meta["position"]
        return ResumeState(
            next_epoch=int(position["next_epoch"]),
            steps_into_epoch=int(position["steps_into_epoch"]),
            total_steps=int(position["total_steps"]),
            epoch_loss=float(position["epoch_loss"]),
        )


# ----------------------------------------------------------------------
# serialisation helpers
# ----------------------------------------------------------------------
def _json_default(value):
    """Convert numpy scalars so the meta blob stays pure JSON."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value.item()
    raise TypeError(f"checkpoint meta cannot serialise {type(value).__name__}")


def _payload_digest(arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over every array's name, dtype, shape and raw bytes."""
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(array.dtype).encode("utf-8"))
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def checkpoint_path(directory: Union[str, Path], epoch: int, total_steps: int) -> Path:
    """Canonical file name: sortable by (epoch, step) lexicographically."""
    return Path(directory) / f"{_FILE_PREFIX}-epoch{epoch:05d}-step{total_steps:09d}.npz"


def list_checkpoints(directory: Union[str, Path]) -> List[Path]:
    """All checkpoint files in ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob(f"{_FILE_PREFIX}-epoch*-step*.npz"))


def latest_checkpoint(directory: Union[str, Path]) -> Optional[Path]:
    """The newest checkpoint in ``directory`` (``None`` when empty)."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def _prune(directory: Path, keep: int) -> None:
    for stale in list_checkpoints(directory)[:-keep] if keep > 0 else []:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover — concurrent cleanup
            pass


def generator_state(rng) -> Dict:
    """JSON-safe snapshot of a ``numpy.random.Generator``."""
    return rng.bit_generator.state


def set_generator_state(rng, state: Dict) -> None:
    rng.bit_generator.state = state


def save_checkpoint(
    directory: Union[str, Path],
    *,
    model,
    optimizer,
    history: TrainingHistory,
    position: ResumeState,
    loader_rng_states: Dict[str, Dict],
    model_rng_states: Sequence[Dict],
    config_fingerprint: Dict,
    scheduler_state: Optional[Dict] = None,
    early_stopping_state: Optional[Dict] = None,
    keep: int = 3,
) -> Path:
    """Write one checkpoint atomically and prune old files; returns the path.

    The temp-write → fsync → ``os.replace`` sequence guarantees a checkpoint
    name only ever points at a complete archive; the injected
    ``checkpoint_crash`` fault (which dies between write and rename) is the
    test for exactly this property.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    arrays: Dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"param::{name}"] = value
    for index, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
        arrays[f"adam_m::{index}"] = m
        arrays[f"adam_v::{index}"] = v
    if history.best_state is not None:
        for name, value in history.best_state.items():
            arrays[f"best::{name}"] = value

    from ..tensor import engine as tensor_engine

    meta = {
        "format_version": CHECKPOINT_VERSION,
        "position": {
            "next_epoch": position.next_epoch,
            "steps_into_epoch": position.steps_into_epoch,
            "total_steps": position.total_steps,
            "epoch_loss": position.epoch_loss,
        },
        "rng": {
            "loaders": loader_rng_states,
            "model_sources": list(model_rng_states),
        },
        "optimizer": {
            "type": type(optimizer).__name__,
            "step_count": optimizer.step_count,
            "lr": optimizer.lr,
            "num_parameters": len(optimizer.parameters),
        },
        "scheduler": scheduler_state,
        "early_stopping": early_stopping_state,
        "history": {
            **{name: getattr(history, name) for name in _HISTORY_SCALARS},
            **{name: getattr(history, name) for name in _HISTORY_LISTS},
            "has_best_state": history.best_state is not None,
        },
        "config": config_fingerprint,
        "engine_dtype": tensor_engine.get_dtype().str,
        "digest": _payload_digest(arrays),
    }
    payload = dict(arrays)
    payload["meta"] = np.frombuffer(
        json.dumps(meta, default=_json_default).encode("utf-8"), dtype=np.uint8
    )

    final_path = checkpoint_path(directory, position.next_epoch, position.total_steps)
    fd, tmp_name = tempfile.mkstemp(
        prefix=final_path.name + ".tmp-", dir=str(directory)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
            handle.flush()
            os.fsync(handle.fileno())
        if faults.checkpoint_should_crash():
            # Simulated crash between write and rename: the temp file exists
            # but no checkpoint name ever points at it.
            raise CheckpointError("injected checkpoint-write crash before rename")
        os.replace(tmp_name, final_path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if faults.checkpoint_should_corrupt():
        # Simulated torn write: flip bytes in the middle of the finished
        # file so the loader's integrity checks must catch it.
        with open(final_path, "r+b") as handle:
            handle.seek(max(final_path.stat().st_size // 2, 0))
            handle.write(b"\xde\xad\xbe\xef" * 8)
    _prune(directory, keep)
    return final_path


def load_checkpoint(
    path: Union[str, Path], *, params_only: bool = False
) -> TrainingCheckpoint:
    """Parse and validate one checkpoint archive.

    Raises :class:`CheckpointError` on a missing file, a truncated or
    corrupted archive, an unknown format version or a digest mismatch — a
    checkpoint either restores completely or not at all.

    ``params_only`` is the inference-tier loading mode (``repro serve``):
    the optimizer moment buffers are neither materialised nor checked for
    completeness, so an archive whose Adam payload was stripped for
    deployment still loads — only the model parameters (and the
    early-stopping best state, when present) are returned.  The payload
    digest is always verified; a params-only load of a corrupted archive
    fails with the same clear integrity error as a full load.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as archive:
            if "meta" not in archive.files:
                raise CheckpointError(
                    f"{path} is not a training checkpoint (no meta entry)"
                )
            meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
            arrays = {
                name: archive[name] for name in archive.files if name != "meta"
            }
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, OSError, EOFError, ValueError, KeyError) as error:
        raise CheckpointError(
            f"checkpoint {path} is truncated or corrupted ({error!r}); "
            "restore from an older checkpoint"
        ) from error
    version = meta.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}; this build "
            f"reads version {CHECKPOINT_VERSION} — re-train or convert"
        )
    digest = _payload_digest(arrays)
    if digest != meta.get("digest"):
        raise CheckpointError(
            f"checkpoint {path} failed integrity verification: payload "
            f"digest {digest[:12]}… does not match recorded "
            f"{str(meta.get('digest'))[:12]}…; the file is corrupted"
        )
    # Restore and the serve reloader both compare this fingerprint.
    meta["config"] = without_retired_fields(meta.get("config", {}))

    parameters = {
        name[len("param::"):]: value
        for name, value in arrays.items()
        if name.startswith("param::")
    }
    adam: Dict[str, List[np.ndarray]] = {"adam_m": [], "adam_v": []}
    if not params_only:
        for kind in ("adam_m", "adam_v"):
            entries = {
                int(name.split("::", 1)[1]): value
                for name, value in arrays.items()
                if name.startswith(f"{kind}::")
            }
            adam[kind] = [entries[index] for index in sorted(entries)]
    best_state = {
        name[len("best::"):]: value
        for name, value in arrays.items()
        if name.startswith("best::")
    }
    expected = int(meta["optimizer"]["num_parameters"])
    if not params_only and (
        len(adam["adam_m"]) != expected or len(adam["adam_v"]) != expected
    ):
        raise CheckpointError(
            f"checkpoint {path} is incomplete: expected {expected} Adam moment "
            f"pairs, found {len(adam['adam_m'])}/{len(adam['adam_v'])}"
        )
    if meta["history"].get("has_best_state") and not best_state:
        raise CheckpointError(
            f"checkpoint {path} is incomplete: early-stopping best state "
            "recorded in meta but missing from the payload"
        )
    return TrainingCheckpoint(
        meta=meta,
        parameters=parameters,
        adam_m=adam["adam_m"],
        adam_v=adam["adam_v"],
        best_state=best_state or None,
        path=path,
    )


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def without_retired_fields(fields: Dict) -> Dict:
    """A saved trainer-config dict minus the retired field names."""
    return {
        name: value
        for name, value in fields.items()
        if name not in _RETIRED_CONFIG_FIELDS
    }


def config_fingerprint(config) -> Dict:
    """The numerics-relevant TrainerConfig fields, JSON-ready."""
    fingerprint = {}
    for name, value in vars(config).items():
        if name in _VOLATILE_CONFIG_FIELDS:
            continue
        fingerprint[name] = value
    return fingerprint


def restore_training_state(
    checkpoint: TrainingCheckpoint,
    *,
    model,
    optimizer,
    loaders: Dict[str, object],
    config,
    scheduler=None,
    early_stopping=None,
) -> tuple:
    """Load a checkpoint into live training objects; returns (history, resume).

    Every restore is strict: a config or dtype mismatch, an unknown loader
    key or a generator-count mismatch raises :class:`CheckpointError` rather
    than silently resuming a different run.
    """
    meta = checkpoint.meta
    from ..tensor import engine as tensor_engine

    live_dtype = tensor_engine.get_dtype().str
    if meta["engine_dtype"] != live_dtype:
        raise CheckpointError(
            f"checkpoint was written under engine dtype {meta['engine_dtype']} "
            f"but the current engine dtype is {live_dtype}"
        )
    saved_config = meta["config"]
    live_config = json.loads(
        json.dumps(config_fingerprint(config), default=_json_default)
    )
    if saved_config != live_config:
        changed = sorted(
            key
            for key in set(saved_config) | set(live_config)
            if saved_config.get(key) != live_config.get(key)
        )
        raise CheckpointError(
            "checkpoint config mismatch: resuming would not replay the "
            f"original run (differing fields: {changed})"
        )

    model.load_state_dict(checkpoint.parameters)
    model.invalidate_cache()

    if len(optimizer.parameters) != int(meta["optimizer"]["num_parameters"]):
        raise CheckpointError(
            "checkpoint optimiser state does not match the live model "
            f"({meta['optimizer']['num_parameters']} vs "
            f"{len(optimizer.parameters)} parameters)"
        )
    for index, (m, v) in enumerate(zip(checkpoint.adam_m, checkpoint.adam_v)):
        np.copyto(optimizer._m[index], m)
        np.copyto(optimizer._v[index], v)
    optimizer.step_count = int(meta["optimizer"]["step_count"])
    optimizer.lr = float(meta["optimizer"]["lr"])

    loader_states = meta["rng"]["loaders"]
    unknown = sorted(set(loader_states) - set(loaders))
    if unknown:
        raise CheckpointError(f"checkpoint loader rng for unknown domains: {unknown}")
    for key, state in loader_states.items():
        set_generator_state(loaders[key]._rng, state)

    from ..tensor.trace import model_rng_sources

    sources = model_rng_sources(model)
    saved_sources = meta["rng"]["model_sources"]
    if len(sources) != len(saved_sources):
        raise CheckpointError(
            f"checkpoint recorded {len(saved_sources)} model rng streams but "
            f"the live model exposes {len(sources)}"
        )
    for rng, state in zip(sources, saved_sources):
        set_generator_state(rng, state)

    scheduler_state = meta.get("scheduler")
    if scheduler is not None and scheduler_state is not None:
        scheduler.epoch = int(scheduler_state["epoch"])
        scheduler.base_lr = float(scheduler_state["base_lr"])
    elif (scheduler is None) != (scheduler_state is None):
        raise CheckpointError(
            "checkpoint and live engine disagree about LR-scheduler presence"
        )
    early_state = meta.get("early_stopping")
    if early_stopping is not None and early_state is not None:
        early_stopping.evals_without_improvement = int(
            early_state["evals_without_improvement"]
        )

    history = TrainingHistory()
    saved_history = meta["history"]
    for name in _HISTORY_SCALARS:
        if name in saved_history:
            setattr(history, name, saved_history[name])
    for name in _HISTORY_LISTS:
        setattr(history, name, list(saved_history.get(name, [])))
    history.best_state = checkpoint.best_state
    history.resumed_from = str(checkpoint.path) if checkpoint.path else "<memory>"
    return history, checkpoint.resume_state


# ----------------------------------------------------------------------
# the engine callback
# ----------------------------------------------------------------------
class CheckpointCallback(Callback):
    """Write checkpoints at the configured epoch/step cadence.

    Wired automatically by :class:`~repro.core.engine.TrainingEngine` when
    ``TrainerConfig.checkpoint_dir`` is set.  Epoch-cadence checkpoints are
    taken *after* the epoch's evaluation and callbacks completed (the
    engine's ``on_epoch_complete`` hook) so the early-stopping state in the
    file matches the loop position; step-cadence checkpoints record the
    loader rng as of the epoch start (the epoch's batch stream is a pure
    function of that state) plus how many steps to replay-and-skip.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        config = engine.config
        self.directory = Path(config.checkpoint_dir)
        self.every_epochs = int(config.checkpoint_every)
        self.every_steps = int(config.checkpoint_every_steps)
        self.keep = int(config.checkpoint_keep)
        self._epoch_loss = 0.0
        self._epoch_steps = 0

    # -- engine-side state the callback mirrors -------------------------
    def on_fit_start(self, context: EngineContext) -> None:
        resume = context.resume
        if resume is not None and resume.steps_into_epoch > 0:
            self._epoch_loss = resume.epoch_loss
            self._epoch_steps = resume.steps_into_epoch

    def on_epoch_start(self, context: EngineContext, epoch: int) -> None:
        resume = context.resume
        if not (
            resume is not None
            and epoch == resume.next_epoch
            and resume.steps_into_epoch > 0
        ):
            self._epoch_loss = 0.0
            self._epoch_steps = 0

    def on_step_end(self, context: EngineContext, step: int, loss: float) -> None:
        # Same accumulation order as the engine's epoch_loss, so a mid-epoch
        # checkpoint stores the bit-exact partial sum.
        self._epoch_loss += loss
        self._epoch_steps += 1
        if self.every_steps and step % self.every_steps == 0:
            self._save_mid_epoch(context)
        faults.parent_boundary(step=step)

    def on_epoch_complete(self, context: EngineContext, epoch: int) -> None:
        if self.every_epochs and (epoch + 1) % self.every_epochs == 0:
            self._save_epoch_boundary(context, epoch)
        faults.parent_boundary(epoch=epoch)

    # -- snapshot assembly ----------------------------------------------
    def _write(self, context: EngineContext, position: ResumeState, loader_rng) -> None:
        if loader_rng is None:
            raise CheckpointError(
                "the data pipeline did not expose loader rng snapshots; "
                "checkpointing requires pipeline-managed loaders"
            )
        from ..tensor.trace import model_rng_sources

        scheduler = self.engine.scheduler
        stopper = self.engine.early_stopper
        path = save_checkpoint(
            self.directory,
            model=context.model,
            optimizer=context.optimizer,
            history=context.history,
            position=position,
            loader_rng_states=loader_rng,
            model_rng_states=[
                generator_state(rng) for rng in model_rng_sources(context.model)
            ],
            config_fingerprint=json.loads(
                json.dumps(config_fingerprint(context.config), default=_json_default)
            ),
            scheduler_state=(
                {"epoch": scheduler.epoch, "base_lr": scheduler.base_lr}
                if scheduler is not None
                else None
            ),
            early_stopping_state=(
                {"evals_without_improvement": stopper.evals_without_improvement}
                if stopper is not None
                else None
            ),
            keep=self.keep,
        )
        context.history.checkpoints_written += 1
        context.history.last_checkpoint = str(path)

    def _save_epoch_boundary(self, context: EngineContext, epoch: int) -> None:
        # Loader rng as of *after* this epoch's production == before the
        # next epoch's.
        self._write(
            context,
            ResumeState(
                next_epoch=epoch + 1,
                steps_into_epoch=0,
                total_steps=context.history.num_batches,
                epoch_loss=0.0,
            ),
            context.pipeline.epoch_rng_after,
        )

    def _save_mid_epoch(self, context: EngineContext) -> None:
        self._write(
            context,
            ResumeState(
                next_epoch=context.epoch,
                steps_into_epoch=self._epoch_steps,
                total_steps=context.history.num_batches,
                epoch_loss=self._epoch_loss,
            ),
            context.pipeline.epoch_rng_before,
        )
