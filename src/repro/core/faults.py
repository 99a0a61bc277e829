"""Config/env-driven fault injection for the fault-tolerance test harness.

Production code calls the tiny hook functions below at its failure-critical
sites (worker step entry, checkpoint write, engine epoch boundaries); with no
faults armed every hook is a cheap no-op.  Tests — and operators rehearsing
recovery — arm :class:`FaultSpec` entries either programmatically
(:func:`configure`) or through the ``REPRO_FAULTS`` environment variable,
which survives into forked shard workers and CLI subprocesses.

Injection points
----------------

``worker_exit``
    The shard worker calls ``os._exit`` at the start of the matching step —
    a hard crash the parent must detect and recover from.
``worker_hang``
    The worker sleeps past any reasonable step deadline, exercising the
    supervisor's hang detection (``delay`` overrides the default sleep).
``worker_slow``
    The worker sleeps ``delay`` seconds and then completes normally — a slow
    step must *not* trigger recovery while it stays under the deadline.
``checkpoint_crash``
    The checkpoint writer dies after producing the temporary file but before
    the atomic rename — the previous checkpoint must survive intact.
``checkpoint_corrupt``
    The checkpoint writer flips bytes in the finished file — the loader must
    fail loudly, never restore a partial state.
``parent_exit``
    The training parent process exits hard at an epoch/step boundary (after
    any due checkpoint), simulating a kill for resume tests.
``exchange_overflow``
    The sharded executor's shm exchange plane force-regrows every region at
    the matching step's begin (fresh segments, bumped generations) as if the
    step's payload had overflowed — workers must re-attach mid-epoch and the
    training stream must stay bit-identical.
``reload_corrupt``
    The serve-tier hot reloader corrupts what it is about to trust: with
    ``phase=file`` it flips bytes in the checkpoint archive before loading
    (the digest check must reject it); with ``phase=table`` it perturbs
    the freshly built *shadow* store tables (the canary slate must reject
    it).  A phase-less spec fires at the first site reached (``file``).
    Either way the serving generation must roll back untouched.
``reload_crash``
    A hard ``os._exit`` mid-reload: ``phase=publish`` dies inside
    :meth:`RepresentationStore.save` between the shadow ``.npz`` write and
    the atomic rename (the prior archive must stay loadable, generation
    unbumped); ``phase=swap`` dies in the hot reloader after the shadow
    store was built but before the swap (no persisted artifact may be
    torn).
``store_stale``
    The scorer front end sees an artificial staleness lag of ``lag``
    parameter updates, driving the serve degradation ladder (stale-flagged
    answers, the matching-module cold path, the typed unavailable error)
    without a live trainer.
``scorer_slow``
    The scorer sleeps ``delay`` seconds inside its micro-batch loop
    (optionally only at micro-batch index ``step``) — the lever that makes
    request deadlines observable and proves deadline enforcement never
    hangs.

Respawn semantics
-----------------

Fault state lives in module globals, so a forked worker inherits the armed
specs of its parent.  A *respawned* worker would therefore re-fire the very
fault that killed its predecessor and retry forever; to model one-off
failures, each spec is armed at the current *generation* and the supervisor
bumps the generation (:func:`mark_respawn`) before re-forking.  Specs fire
only in their own generation unless ``refire=True`` — the knob used to drive
retry budgets to exhaustion and test graceful degradation.

``REPRO_FAULTS`` grammar (comma-separated specs, colon-separated fields)::

    REPRO_FAULTS="worker_exit:shard=1:step=2,worker_slow:delay=0.2"
    REPRO_FAULTS="worker_exit:shard=0:refire,parent_exit:epoch=2"
    REPRO_FAULTS="exchange_overflow:step=3"
    REPRO_FAULTS="reload_corrupt:phase=file,scorer_slow:delay=0.2"
    REPRO_FAULTS="store_stale:lag=7,reload_crash:phase=publish"
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "FaultSpec",
    "configure",
    "clear",
    "active_specs",
    "load_env",
    "mark_respawn",
    "fire",
    "worker_step",
    "checkpoint_should_crash",
    "checkpoint_should_corrupt",
    "parent_boundary",
    "reload_should_corrupt",
    "reload_crash_point",
    "injected_staleness_lag",
    "scorer_chunk",
]

#: Exit code used by injected hard-crash faults, distinct from real failures.
FAULT_EXIT_CODE = 23

#: Environment variable holding the fault spec string.
ENV_VAR = "REPRO_FAULTS"

_WORKER_POINTS = ("worker_exit", "worker_hang", "worker_slow")
#: The points whose hooks pass a ``phase``, and the phases each one passes;
#: a ``phase=`` filter anywhere else could never match.
_PHASES = {
    "reload_corrupt": ("file", "table"),
    "reload_crash": ("publish", "swap"),
}
_POINTS = _WORKER_POINTS + (
    "checkpoint_crash",
    "checkpoint_corrupt",
    "parent_exit",
    "exchange_overflow",
    "reload_corrupt",
    "reload_crash",
    "store_stale",
    "scorer_slow",
)


@dataclass
class FaultSpec:
    """One armed fault: where it fires, how often, and in which generation."""

    point: str
    #: Restrict to one shard worker (``None`` matches every shard).
    shard: Optional[int] = None
    #: Restrict to one step index (worker-local for worker points,
    #: engine-global for ``parent_exit``); ``None`` matches every step.
    step: Optional[int] = None
    #: Restrict a reload point to one phase (``file``/``table`` for
    #: ``reload_corrupt``, ``publish``/``swap`` for ``reload_crash``) —
    #: ``None`` matches any phase; every other point rejects a phase.
    phase: Optional[str] = None
    #: Restrict ``parent_exit`` to one epoch boundary.
    epoch: Optional[int] = None
    #: Sleep length for ``worker_slow``/``scorer_slow`` (and override for
    #: ``worker_hang``).
    delay: float = 0.0
    #: Injected staleness lag for ``store_stale`` (payload, not a filter).
    lag: int = 0
    #: How many times this spec may fire in one process (per process copy —
    #: a forked worker starts from the parent's remaining budget).
    count: int = 1
    #: Keep firing in respawned workers (later generations); the lever that
    #: exhausts retry budgets.
    refire: bool = False
    #: Generation the spec was armed in (filled by :func:`configure`).
    armed_generation: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.point not in _POINTS:
            raise ValueError(f"unknown fault point '{self.point}'; expected one of {_POINTS}")
        valid = _PHASES.get(self.point, ())
        if self.phase is not None and self.phase not in valid:
            raise ValueError(
                f"fault point '{self.point}' has no phase '{self.phase}'; "
                + (f"expected one of {valid}" if valid else "it takes no phase")
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")
        if self.lag < 0:
            raise ValueError("lag must be >= 0")


_specs: List[FaultSpec] = []
_generation = 0
_env_loaded = False


def configure(*specs: FaultSpec) -> None:
    """Arm the given specs (replacing any already armed)."""
    global _specs, _env_loaded
    _env_loaded = True  # explicit configuration overrides the environment
    for spec in specs:
        spec.armed_generation = _generation
    _specs = list(specs)


def clear() -> None:
    """Disarm everything (tests call this in teardown)."""
    global _specs, _env_loaded, _generation
    _specs = []
    _generation = 0
    _env_loaded = True


def active_specs() -> List[FaultSpec]:
    """The currently armed specs (after env loading)."""
    _ensure_env()
    return list(_specs)


def parse_spec(text: str) -> FaultSpec:
    """Parse one ``point:key=value:flag`` fragment of ``REPRO_FAULTS``."""
    parts = [part for part in text.strip().split(":") if part]
    if not parts:
        raise ValueError("empty fault spec")
    kwargs: Dict[str, object] = {}
    for part in parts[1:]:
        if "=" in part:
            key, value = part.split("=", 1)
            if key in ("shard", "step", "epoch", "count", "lag"):
                kwargs[key] = int(value)
            elif key == "delay":
                kwargs[key] = float(value)
            elif key == "phase":
                kwargs[key] = value
            else:
                raise ValueError(f"unknown fault spec field '{key}'")
        elif part == "refire":
            kwargs["refire"] = True
        else:
            raise ValueError(f"malformed fault spec fragment '{part}'")
    return FaultSpec(parts[0], **kwargs)


def load_env(value: Optional[str] = None) -> None:
    """Arm specs from ``REPRO_FAULTS`` (or an explicit string)."""
    text = os.environ.get(ENV_VAR, "") if value is None else value
    specs = [parse_spec(part) for part in text.split(",") if part.strip()]
    configure(*specs)


def _ensure_env() -> None:
    """Lazily pick up ``REPRO_FAULTS`` the first time any hook is consulted."""
    global _env_loaded
    if not _env_loaded:
        _env_loaded = True
        if os.environ.get(ENV_VAR):
            load_env()


def mark_respawn() -> None:
    """Advance the generation before re-forking a worker.

    Called by the worker supervisor so the replacement worker (which inherits
    this module's state through fork) does not re-fire the one-shot fault
    that killed its predecessor.
    """
    global _generation
    _ensure_env()
    _generation += 1


def _matches(spec: FaultSpec, point: str, context: Dict[str, object]) -> bool:
    if spec.point != point or spec.count <= 0:
        return False
    if not spec.refire and spec.armed_generation != _generation:
        return False
    for key in ("shard", "step", "phase", "epoch"):
        wanted = getattr(spec, key)
        if wanted is not None and context.get(key) != wanted:
            return False
    return True


def fire(point: str, **context: object) -> Optional[FaultSpec]:
    """Return (and consume one count of) the first matching armed spec."""
    _ensure_env()
    if not _specs:  # the hot-path fast exit
        return None
    for spec in _specs:
        if _matches(spec, point, context):
            spec.count -= 1
            return spec
    return None


# ----------------------------------------------------------------------
# site-specific hooks
# ----------------------------------------------------------------------
def worker_step(shard: int, step: int) -> None:
    """Worker-side hook at the top of every step.

    Order matters: a slow step completes, a hang blocks until the parent's
    deadline kills the worker, an exit dies instantly.
    """
    spec = fire("worker_slow", shard=shard, step=step)
    if spec is not None:
        time.sleep(spec.delay)
    spec = fire("worker_hang", shard=shard, step=step)
    if spec is not None:
        time.sleep(spec.delay or 3600.0)
    spec = fire("worker_exit", shard=shard, step=step)
    if spec is not None:
        os._exit(FAULT_EXIT_CODE)


def checkpoint_should_crash() -> bool:
    """Checkpoint-writer hook between the temp write and the atomic rename."""
    return fire("checkpoint_crash") is not None


def checkpoint_should_corrupt() -> bool:
    """Checkpoint-writer hook after a successful write."""
    return fire("checkpoint_corrupt") is not None


def parent_boundary(epoch: Optional[int] = None, step: Optional[int] = None) -> None:
    """Parent-side hook at epoch/step boundaries (after due checkpoints)."""
    if fire("parent_exit", epoch=epoch, step=step) is not None:
        os._exit(FAULT_EXIT_CODE)


def reload_should_corrupt(phase: str) -> bool:
    """Hot-reloader hook: corrupt the artifact handled at ``phase``.

    ``phase="file"`` corrupts the checkpoint archive before loading;
    ``phase="table"`` corrupts the freshly built shadow store tables.  A
    phase-less spec fires at the first site reached (``file``).
    """
    return fire("reload_corrupt", phase=phase) is not None


def reload_crash_point(phase: str) -> None:
    """Hard-kill hook inside the reload/publish critical sections.

    ``phase="publish"`` sits between the store's shadow ``.npz`` write and
    its atomic rename; ``phase="swap"`` sits between the shadow store build
    and the in-process swap.
    """
    if fire("reload_crash", phase=phase) is not None:
        os._exit(FAULT_EXIT_CODE)


def injected_staleness_lag() -> Optional[int]:
    """Scorer-side hook: an artificial staleness lag, or ``None``."""
    spec = fire("store_stale")
    return spec.lag if spec is not None else None


def scorer_chunk(chunk: int) -> None:
    """Scorer-side hook at the top of every micro-batch (``step`` = index)."""
    spec = fire("scorer_slow", step=chunk)
    if spec is not None:
        time.sleep(spec.delay)
