"""Fault-injection recovery suite (``pytest -m faults``).

Every test arms :mod:`repro.core.faults` specs and proves the training
stack's recovery contracts:

* an injected worker **death** or **hang** is healed by the supervisor's
  respawn-and-replay within the retry budget, and the finished run is
  **bit-identical** to an unfaulted one (float64 losses, metrics, params);
* a **slow** step under the deadline never triggers recovery;
* exhausted retries either raise (fail-fast default) or walk the
  degradation ladder down to fewer shards — and training still completes
  bit-identically;
* recovery never leaks worker processes or shared-memory segments, even
  when the training *parent* is killed outright (SIGTERM / SIGINT);
* a parent killed at a checkpoint boundary resumes bit-identically
  (env-driven ``REPRO_FAULTS``, exercising the CLI-facing grammar).

The injected-crash exit code (23) is asserted where subprocesses die, so a
real failure can never masquerade as a successfully injected fault.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core import (
    Callback,
    CDRTrainer,
    NMCDR,
    NMCDRConfig,
    TrainerConfig,
    build_task,
    faults,
)
from repro.core.checkpoint import latest_checkpoint
from repro.core.sharded import WorkerDied, WorkerTimeout
from repro.data import load_scenario, preprocess_scenario

pytestmark = pytest.mark.faults


@pytest.fixture(autouse=True)
def disarm():
    """No fault armed by one test may ever leak into the next."""
    faults.clear()
    yield
    faults.clear()


def shard_children():
    return [
        process
        for process in multiprocessing.active_children()
        if process.name.startswith("repro-shard")
    ]


def leaked_shm(prefixes=("repro-shm-", "repro-xp-")):
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover — non-Linux fallback
        return []
    if isinstance(prefixes, str):
        prefixes = (prefixes,)
    return [
        name for name in os.listdir(shm_dir) if name.startswith(tuple(prefixes))
    ]


def assert_no_leaks(deadline=5.0):
    """Processes and shm segments must be gone (resource_tracker may lag)."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if not shard_children() and not leaked_shm():
            return
        time.sleep(0.05)
    assert not shard_children(), "leaked shard worker processes"
    assert not leaked_shm(), "leaked shared-memory segments"


@pytest.fixture(scope="module")
def task():
    dataset = preprocess_scenario(
        load_scenario("cloth_sport", scale=0.3, seed=3), min_interactions=3
    )
    return build_task(dataset, head_threshold=5)


def make_trainer(task, **overrides):
    settings = dict(
        num_epochs=2,
        batch_size=64,
        seed=0,
        eval_every=0,
        num_eval_negatives=20,
        executor="sharded",
        n_shards=2,
    )
    settings.update(overrides)
    config = TrainerConfig(**settings)
    model = NMCDR(
        task,
        NMCDRConfig(embedding_dim=8, max_matching_neighbors=8, head_threshold=5, seed=0),
    )
    return CDRTrainer(model, task, config)


_REFERENCES = {}


def reference_run(task, **overrides):
    """Unfaulted history+params for a config, computed once per module.

    Disarms any armed fault first: the comparisons all run *after* the
    faulted fit finished, so nothing still needs the spec.
    """
    key = tuple(sorted(overrides.items()))
    if key not in _REFERENCES:
        faults.clear()
        trainer = make_trainer(task, **overrides)
        history = trainer.fit()
        _REFERENCES[key] = (history, trainer.model.state_dict())
    return _REFERENCES[key]


def assert_bit_identical(trainer, history, task, **overrides):
    history_ref, params_ref = reference_run(task, **overrides)
    assert history.epoch_losses == history_ref.epoch_losses
    assert history.validation_metrics == history_ref.validation_metrics
    params = trainer.model.state_dict()
    for name in params_ref:
        assert np.array_equal(params_ref[name], params[name]), name


# ----------------------------------------------------------------------
# the spec grammar and generation semantics
# ----------------------------------------------------------------------
class TestFaultSpecs:
    def test_parse_full_grammar(self):
        spec = faults.parse_spec("worker_exit:shard=1:step=2:phase=enc:delay=0.5:count=3:refire")
        assert spec.point == "worker_exit"
        assert spec.shard == 1
        assert spec.step == 2
        assert spec.phase == "enc"
        assert spec.delay == 0.5
        assert spec.count == 3
        assert spec.refire

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            faults.parse_spec("worker_explode")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault spec field"):
            faults.parse_spec("worker_exit:color=red")

    def test_env_grammar_loads_multiple_specs(self):
        faults.load_env("worker_slow:delay=0.1,checkpoint_crash")
        points = [spec.point for spec in faults.active_specs()]
        assert points == ["worker_slow", "checkpoint_crash"]

    def test_count_budget_is_consumed(self):
        faults.configure(faults.FaultSpec("worker_slow", count=2))
        assert faults.fire("worker_slow") is not None
        assert faults.fire("worker_slow") is not None
        assert faults.fire("worker_slow") is None

    def test_one_shot_spec_dies_with_its_generation(self):
        # The supervisor bumps the generation before re-forking; a one-shot
        # spec armed in generation 0 must not fire in generation 1, while a
        # refire spec keeps firing.
        faults.configure(
            faults.FaultSpec("worker_slow"),
            faults.FaultSpec("checkpoint_crash", refire=True, count=10),
        )
        faults.mark_respawn()
        assert faults.fire("worker_slow") is None
        assert faults.fire("checkpoint_crash") is not None

    def test_context_filters(self):
        faults.configure(faults.FaultSpec("worker_slow", shard=1, step=3))
        assert faults.fire("worker_slow", shard=0, step=3) is None
        assert faults.fire("worker_slow", shard=1, step=2) is None
        assert faults.fire("worker_slow", shard=1, step=3) is not None


# ----------------------------------------------------------------------
# supervised recovery: respawn-and-replay is bit-identical
# ----------------------------------------------------------------------
class TestSupervisedRecovery:
    def test_worker_death_respawned_bit_identical(self, task):
        faults.configure(faults.parse_spec("worker_exit:shard=1:step=5"))
        trainer = make_trainer(task, worker_max_retries=2)
        history = trainer.fit()
        assert history.worker_deaths == 1
        assert history.worker_respawns == 1
        assert history.worker_timeouts == 0
        assert_bit_identical(trainer, history, task)
        assert_no_leaks()

    def test_worker_hang_respawned_bit_identical(self, task):
        faults.configure(faults.parse_spec("worker_hang:shard=0:step=3:delay=30"))
        trainer = make_trainer(task, worker_max_retries=2, worker_step_timeout=2.0)
        history = trainer.fit()
        assert history.worker_timeouts == 1
        assert history.worker_respawns == 1
        assert_bit_identical(trainer, history, task)
        assert_no_leaks()

    def test_slow_step_does_not_trigger_recovery(self, task):
        # No retry budget: any spurious recovery attempt would raise.
        faults.configure(faults.parse_spec("worker_slow:shard=0:step=2:delay=0.3"))
        trainer = make_trainer(task, worker_step_timeout=30.0)
        history = trainer.fit()
        assert history.worker_deaths == 0
        assert history.worker_timeouts == 0
        assert history.worker_respawns == 0
        assert_bit_identical(trainer, history, task)
        assert_no_leaks()

    def test_pool_sharded_death_mid_protocol_recovered(self, task):
        # Kill during the multi-phase pool exchange (the hard case: the
        # supervisor must replay the partially-delivered step dialogue).
        faults.configure(faults.parse_spec("worker_exit:shard=1:step=4:phase=match"))
        trainer = make_trainer(task, pool_sharding=True, worker_max_retries=2)
        history = trainer.fit()
        assert history.worker_deaths == 1
        assert history.worker_respawns == 1
        assert_bit_identical(trainer, history, task, pool_sharding=True)
        assert_no_leaks()

    def test_pool_sharded_death_mid_gather_recovered(self, task):
        # Kill in the encode phase, after the victim may already have
        # published owned rows into the shared activation table: the
        # respawned worker must re-attach the exchange regions from the
        # replayed dispatch headers and re-publish identical bytes.
        faults.configure(faults.parse_spec("worker_exit:shard=0:step=3:phase=enc"))
        trainer = make_trainer(task, pool_sharding=True, worker_max_retries=2)
        history = trainer.fit()
        assert history.worker_deaths == 1
        assert history.worker_respawns == 1
        assert_bit_identical(trainer, history, task, pool_sharding=True)
        assert_no_leaks()

    def test_exchange_overflow_regrow_mid_epoch_bit_identical(self, task):
        # Force-regrow every exchange region mid-epoch (fresh segments,
        # bumped generations): workers re-attach lazily by name and the
        # run must be bit-identical to the unfaulted reference.
        faults.configure(faults.parse_spec("exchange_overflow:step=3"))
        trainer = make_trainer(task, pool_sharding=True)
        history = trainer.fit()
        executor = trainer._executor
        assert executor.comms_stats.forced_regrows == 1
        assert executor.comms_stats.fallback_data_bytes == 0
        assert_bit_identical(trainer, history, task, pool_sharding=True)
        assert_no_leaks()

    def test_exchange_overflow_with_respawn_interleaved(self, task):
        # The two recovery paths compose: a forced regrow at one step and
        # a worker death at a later step of the same run.
        faults.configure(
            faults.parse_spec("exchange_overflow:step=2"),
            faults.parse_spec("worker_exit:shard=1:step=5:phase=enc"),
        )
        trainer = make_trainer(task, pool_sharding=True, worker_max_retries=2)
        history = trainer.fit()
        assert history.worker_respawns == 1
        assert_bit_identical(trainer, history, task, pool_sharding=True)
        assert_no_leaks()

    def test_fail_fast_default_raises_on_death(self, task):
        # Without an explicit retry budget, supervision stays out of the
        # way: the PR-4 liveness contract (raise, don't hang) is unchanged.
        faults.configure(faults.parse_spec("worker_exit:shard=1:step=1"))
        trainer = make_trainer(task)
        with pytest.raises(RuntimeError, match="shard worker 1"):
            trainer.fit()
        assert_no_leaks()

    def test_exhausted_retries_raise_without_degrade(self, task):
        faults.configure(faults.parse_spec("worker_exit:shard=1:refire:count=100"))
        trainer = make_trainer(task, worker_max_retries=1)
        with pytest.raises(WorkerDied):
            trainer.fit()
        assert_no_leaks()

    def test_worker_died_errors_are_runtime_errors(self):
        assert issubclass(WorkerDied, RuntimeError)
        assert issubclass(WorkerTimeout, RuntimeError)


# ----------------------------------------------------------------------
# graceful degradation: fewer shards, same numbers
# ----------------------------------------------------------------------
class TestDegradation:
    # The refiring faults below kill shard 1 on the very first dispatched
    # step, so no step ever *completes* at the original width: after the
    # retry budget drains, the whole run effectively executes at the
    # degraded width.  The reference is therefore the n_shards=1 run — the
    # documented serial-replica mode, bit-exact against the serial executor
    # (NMCDR at n_shards=2 re-associates the gradient sum, so cross-width
    # bit-identity is only promised when no full-width step landed).
    def test_degrade_completes_bit_identical(self, task):
        faults.configure(faults.parse_spec("worker_exit:shard=1:refire:count=100"))
        trainer = make_trainer(task, worker_max_retries=1, degrade_on_failure=True)
        history = trainer.fit()
        assert history.executor_degradations >= 1
        assert history.worker_deaths >= 1
        assert_bit_identical(trainer, history, task, n_shards=1)
        assert_no_leaks()

    def test_pool_sharded_degrade_completes_bit_identical(self, task):
        faults.configure(faults.parse_spec("worker_exit:shard=1:refire:count=100"))
        trainer = make_trainer(
            task, pool_sharding=True, worker_max_retries=1, degrade_on_failure=True
        )
        history = trainer.fit()
        assert history.executor_degradations >= 1
        assert_bit_identical(trainer, history, task, pool_sharding=True, n_shards=1)
        assert_no_leaks()

    def test_degradation_ladder_reaches_serial_fallback(self, task):
        # Every shard keeps dying: n=2 -> n=1 -> in-parent serial. The run
        # must still finish with the exact serial-replica numbers.
        faults.configure(faults.parse_spec("worker_exit:refire:count=1000"))
        trainer = make_trainer(task, worker_max_retries=0, degrade_on_failure=True)
        history = trainer.fit()
        assert history.executor_degradations >= 2
        assert_bit_identical(trainer, history, task, n_shards=1)
        assert_no_leaks()


# ----------------------------------------------------------------------
# satellite S3: traced-program cache stats survive respawns
# ----------------------------------------------------------------------
class TestTraceStatsAcrossRespawn:
    def test_stats_merge_counts_both_incarnations(self, task):
        clean = make_trainer(task, traced_steps=True)
        clean.fit()
        clean_stats = clean._executor.trace_stats
        assert clean_stats is not None and clean_stats["sections"] > 0

        faults.configure(faults.parse_spec("worker_exit:shard=1:step=5"))
        faulted = make_trainer(task, traced_steps=True, worker_max_retries=2)
        history = faulted.fit()
        assert history.worker_respawns == 1
        stats = faulted._executor.trace_stats
        # The dead incarnation's counters are retired, not lost: the merged
        # totals cover at least every section a respawn-free run records
        # (the replayed step is counted in both incarnations, so >=), and
        # the replacement worker re-records its programs (extra misses).
        assert stats["sections"] >= clean_stats["sections"]
        assert stats["misses"] > clean_stats["misses"]
        assert_bit_identical(faulted, history, task, traced_steps=True)
        assert_no_leaks()


# ----------------------------------------------------------------------
# a data loader failing under the sharded executors
# ----------------------------------------------------------------------
class ExplodingLoader:
    """Loader whose iteration fails after ``explode_at`` batches."""

    def __init__(self, loader, explode_at):
        self.loader = loader
        self.explode_at = explode_at

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        for index, batch in enumerate(self.loader):
            if index == self.explode_at:
                raise IndexError("injected loader failure")
            yield batch


class StepCounter(Callback):
    def __init__(self):
        self.steps = 0

    def on_step_end(self, context, step, loss):
        self.steps = step


class TestLoaderCrash:
    @pytest.mark.parametrize("pool_sharding", [False, True])
    def test_loader_crash_fails_fit_and_leaks_nothing(self, task, pool_sharding):
        # The batch stream fails on the training thread after the workers
        # have run steps: fit() raises the loader's own error, and closing
        # the executor on the way out reaps every worker and segment.
        trainer = make_trainer(task, pool_sharding=pool_sharding)
        counter = StepCounter()
        trainer._callbacks.append(counter)
        trainer._loaders["a"] = ExplodingLoader(trainer._loaders["a"], explode_at=2)
        with pytest.raises(IndexError, match="injected loader failure"):
            trainer.fit()
        assert counter.steps == 2
        assert_no_leaks()


# ----------------------------------------------------------------------
# satellite S1 + resume gate: killing the training parent process
# ----------------------------------------------------------------------
CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
    from repro.data import load_scenario, preprocess_scenario

    dataset = preprocess_scenario(
        load_scenario("cloth_sport", scale=0.3, seed=3), min_interactions=3
    )
    task = build_task(dataset, head_threshold=5)
    model = NMCDR(
        task,
        NMCDRConfig(embedding_dim=8, max_matching_neighbors=8, head_threshold=5, seed=0),
    )
    config = TrainerConfig(
        num_epochs={num_epochs},
        batch_size=64,
        seed=0,
        eval_every=0,
        num_eval_negatives=20,
        {extra_config}
    )
    trainer = CDRTrainer(model, task, config)
    print("TRAINING-STARTED", flush=True)
    history = trainer.fit({fit_args})
    print("TRAINING-FINISHED", len(history.epoch_losses), flush=True)
    """
)


def spawn_child(tmp_path, num_epochs, extra_config="", fit_args="", env_extra=None):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(repo_root, "src"), env.get("PYTHONPATH", "")])
    )
    env.pop("REPRO_FAULTS", None)
    if env_extra:
        env.update(env_extra)
    script = CHILD_SCRIPT.format(
        num_epochs=num_epochs, extra_config=extra_config, fit_args=fit_args
    )
    return subprocess.Popen(
        [sys.executable, "-u", "-c", script],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def wait_for_started(child, deadline=120.0):
    end = time.monotonic() + deadline
    line = ""
    while time.monotonic() < end:
        line = child.stdout.readline()
        if "TRAINING-STARTED" in line:
            return
        if line == "" and child.poll() is not None:
            break
    raise AssertionError(
        f"child never started training (last line {line!r}): {child.stderr.read()}"
    )


class TestParentKill:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    @pytest.mark.parametrize("pool_sharding", [False, True])
    def test_killed_parent_leaks_nothing(self, task, tmp_path, signum, pool_sharding):
        extra = 'executor="sharded", n_shards=2,'
        if pool_sharding:
            extra += " pool_sharding=True,"
        child = spawn_child(tmp_path, num_epochs=200, extra_config=extra)
        try:
            wait_for_started(child)
            time.sleep(1.5)  # let the shard workers fork and run some steps
            child.send_signal(signum)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover — emergency cleanup
                child.kill()
                child.wait()
        # Every shared-memory segment the child created — parameter blocks
        # and exchange-plane regions alike — is named with its pid; the
        # resource tracker may lag a moment behind the kill.
        prefixes = (f"repro-shm-{child.pid}-", f"repro-xp-{child.pid}-")
        end = time.monotonic() + 10.0
        while time.monotonic() < end and leaked_shm(prefixes):
            time.sleep(0.1)
        assert not leaked_shm(prefixes), (
            f"child leaked shm segments: {leaked_shm(prefixes)}"
        )

    def test_parent_exit_fault_then_resume_bit_identical(self, task, tmp_path):
        """The full kill-and-resume drill, driven by the env grammar."""
        ckpt_dir = tmp_path / "ckpts"
        extra = f'checkpoint_dir=r"{ckpt_dir}", checkpoint_every=1,'
        killed = spawn_child(
            tmp_path,
            num_epochs=2,
            extra_config=extra,
            env_extra={"REPRO_FAULTS": "parent_exit:epoch=0"},
        )
        out, err = killed.communicate(timeout=240)
        assert killed.returncode == faults.FAULT_EXIT_CODE, (out, err)
        assert "TRAINING-FINISHED" not in out
        path = latest_checkpoint(ckpt_dir)
        assert path is not None, "no checkpoint survived the kill"

        resumed = spawn_child(
            tmp_path,
            num_epochs=2,
            extra_config=extra,
            fit_args=f'resume_from=r"{ckpt_dir}"',
        )
        out, err = resumed.communicate(timeout=240)
        assert resumed.returncode == 0, (out, err)
        assert "TRAINING-FINISHED 2" in out

        # The resumed child's final state matches an uninterrupted run.
        history_ref, params_ref = reference_run(task, executor="serial", num_epochs=2)
        from repro.core.checkpoint import load_checkpoint

        final = load_checkpoint(latest_checkpoint(ckpt_dir))
        assert final.meta["history"]["epoch_losses"] == history_ref.epoch_losses
        for name, value in params_ref.items():
            assert np.array_equal(final.parameters[name], value), name
