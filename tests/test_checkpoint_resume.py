"""Deterministic checkpoint/resume: bit-identity gates, schema, atomicity.

The headline guarantee gated here: a training run killed at any checkpoint
boundary and resumed from the file replays the remainder of the run
**bit-identically** under the float64 default dtype — epoch losses,
validation metrics and final parameters all match an uninterrupted run
exactly, for the serial executor and both sharded executors.

The unit surface covers the schema-versioning satellite: a version
mismatch, a truncated payload, a flipped byte or a mismatched config all
raise :class:`CheckpointError` loudly — a checkpoint never restores a
partial state.
"""

import json
import zipfile

import numpy as np
import pytest

from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task, faults
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCallback,
    CheckpointError,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
)
from repro.data import load_scenario, preprocess_scenario


@pytest.fixture(scope="module")
def task():
    dataset = preprocess_scenario(
        load_scenario("cloth_sport", scale=0.3, seed=3), min_interactions=3
    )
    return build_task(dataset, head_threshold=5)


def make_trainer(task, **overrides):
    settings = dict(
        num_epochs=3,
        batch_size=64,
        seed=0,
        eval_every=1,
        num_eval_negatives=20,
    )
    settings.update(overrides)
    config = TrainerConfig(**settings)
    model = NMCDR(
        task,
        NMCDRConfig(embedding_dim=8, max_matching_neighbors=8, head_threshold=5, seed=0),
    )
    return CDRTrainer(model, task, config)


def assert_resume_bit_identical(task, tmp_path, pick, **overrides):
    """Train once uninterrupted, once checkpointed, once resumed; compare.

    ``pick`` selects the checkpoint to resume from out of the full retained
    sequence (``checkpoint_keep=0`` keeps everything).
    """
    reference = make_trainer(task, **overrides)
    history_ref = reference.fit()
    params_ref = reference.model.state_dict()

    checkpoint_overrides = dict(
        overrides,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=0,
        checkpoint_every_steps=10,
        checkpoint_keep=0,
    )
    first = make_trainer(task, **checkpoint_overrides)
    history_first = first.fit()
    assert history_first.epoch_losses == history_ref.epoch_losses

    checkpoints = list_checkpoints(tmp_path)
    assert checkpoints, "no checkpoints written"
    path = pick(checkpoints)

    resumed = make_trainer(task, **checkpoint_overrides)
    history = resumed.fit(resume_from=str(path))

    assert history.resumed_from == str(path)
    assert history.epoch_losses == history_ref.epoch_losses
    assert history.validation_metrics == history_ref.validation_metrics
    params = resumed.model.state_dict()
    assert set(params) == set(params_ref)
    for name in params_ref:
        assert np.array_equal(params_ref[name], params[name]), name
    return history


def mid_epoch(checkpoints):
    """A checkpoint whose resume position lies strictly inside an epoch."""
    for path in checkpoints:
        if load_checkpoint(path).resume_state.steps_into_epoch > 0:
            return path
    raise AssertionError("no mid-epoch checkpoint was written")


# ----------------------------------------------------------------------
# the resume gate: killed-and-resumed runs are bit-identical
# ----------------------------------------------------------------------
class TestResumeBitIdentity:
    def test_serial_epoch_boundary(self, task, tmp_path):
        reference = make_trainer(task)
        history_ref = reference.fit()

        trainer = make_trainer(
            task, checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=0
        )
        trainer.fit()
        checkpoints = list_checkpoints(tmp_path)
        assert len(checkpoints) == 3  # one per epoch

        resumed = make_trainer(
            task, checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=0
        )
        history = resumed.fit(resume_from=str(checkpoints[0]))
        assert history.epoch_losses == history_ref.epoch_losses
        assert history.validation_metrics == history_ref.validation_metrics

    def test_serial_mid_epoch(self, task, tmp_path):
        history = assert_resume_bit_identical(task, tmp_path, mid_epoch)
        assert history.checkpoints_written > 0

    @pytest.mark.slow
    def test_sharded(self, task, tmp_path):
        assert_resume_bit_identical(
            task, tmp_path, mid_epoch, executor="sharded", n_shards=2
        )

    @pytest.mark.slow
    def test_pool_sharded(self, task, tmp_path):
        assert_resume_bit_identical(
            task,
            tmp_path,
            mid_epoch,
            executor="sharded",
            n_shards=2,
            pool_sharding=True,
        )

    def test_resume_from_directory_resolves_newest(self, task, tmp_path):
        reference = make_trainer(task)
        history_ref = reference.fit()

        trainer = make_trainer(
            task, checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=0
        )
        trainer.fit()
        newest = latest_checkpoint(tmp_path)
        assert newest == list_checkpoints(tmp_path)[-1]

        resumed = make_trainer(
            task, checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=0
        )
        history = resumed.fit(resume_from=str(tmp_path))
        # The newest checkpoint covers the whole run: nothing is retrained,
        # and the restored history matches the original bit-for-bit.
        assert history.resumed_from == str(newest)
        assert history.epoch_losses == history_ref.epoch_losses
        assert history.validation_metrics == history_ref.validation_metrics

    def test_resume_from_empty_directory_raises(self, task, tmp_path):
        trainer = make_trainer(task)
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            trainer.fit(resume_from=str(tmp_path))


# ----------------------------------------------------------------------
# timing totals carry on across a resume
# ----------------------------------------------------------------------
def resume_from_first_epoch(task, tmp_path, mutate=None):
    """Train with a checkpoint per epoch, then resume from the first one."""
    overrides = dict(checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=0)
    make_trainer(task, **overrides).fit()
    first = list_checkpoints(tmp_path)[0]
    if mutate is not None:
        rewrite_meta(first, mutate)
    return make_trainer(task, **overrides).fit(resume_from=str(first))


class TestResumeTimingTotals:
    def test_restored_totals_are_added_to(self, task, tmp_path):
        planted = {"data_prep_seconds_total": 1000.0, "fit_wall_seconds": 1000.0}
        history = resume_from_first_epoch(
            task, tmp_path, lambda meta: meta["history"].update(planted)
        )
        assert history.data_prep_seconds_total >= 1000.0
        assert history.fit_wall_seconds >= 1000.0

    def test_resumed_step_and_prep_fit_inside_the_wall(self, task, tmp_path):
        # The invariant TestTimingAccounting holds for uninterrupted runs.
        history = resume_from_first_epoch(task, tmp_path)
        assert history.data_prep_seconds_total > 0
        assert (
            history.step_seconds_total + history.data_prep_seconds_total
            <= history.fit_wall_seconds * 1.05 + 0.05
        )


# ----------------------------------------------------------------------
# retention, cadence and config validation
# ----------------------------------------------------------------------
class TestCadenceAndRetention:
    def test_retention_keeps_last_k(self, task, tmp_path):
        trainer = make_trainer(
            task, checkpoint_dir=str(tmp_path), checkpoint_every=1, checkpoint_keep=2
        )
        trainer.fit()
        checkpoints = list_checkpoints(tmp_path)
        assert len(checkpoints) == 2
        # The survivors are the two newest epoch boundaries.
        assert [c.resume_state.next_epoch for c in map(load_checkpoint, checkpoints)] == [2, 3]

    def test_step_cadence(self, task, tmp_path):
        trainer = make_trainer(
            task,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=0,
            checkpoint_every_steps=5,
            checkpoint_keep=0,
        )
        history = trainer.fit()
        checkpoints = list_checkpoints(tmp_path)
        assert history.checkpoints_written == len(checkpoints)
        assert history.last_checkpoint == str(checkpoints[-1])
        steps = [load_checkpoint(path).resume_state.total_steps for path in checkpoints]
        assert steps == sorted(steps)
        assert all(step % 5 == 0 for step in steps)

    def test_checkpoint_dir_without_cadence_rejected(self):
        with pytest.raises(ValueError, match="checkpoint"):
            TrainerConfig(checkpoint_dir="/tmp/x", checkpoint_every=0, checkpoint_every_steps=0)

    def test_negative_cadence_rejected(self):
        with pytest.raises(ValueError):
            TrainerConfig(checkpoint_every=-1)
        with pytest.raises(ValueError):
            TrainerConfig(checkpoint_every_steps=-1)

    def test_callback_installed_only_with_directory(self, task, tmp_path):
        plain = make_trainer(task).build_engine()
        assert not any(isinstance(c, CheckpointCallback) for c in plain.callbacks)
        enabled = make_trainer(task, checkpoint_dir=str(tmp_path)).build_engine()
        assert any(isinstance(c, CheckpointCallback) for c in enabled.callbacks)


# ----------------------------------------------------------------------
# schema versioning and corruption (satellite S4)
# ----------------------------------------------------------------------
def write_one_checkpoint(task, tmp_path):
    trainer = make_trainer(
        task, num_epochs=1, checkpoint_dir=str(tmp_path), checkpoint_every=1
    )
    trainer.fit()
    path = latest_checkpoint(tmp_path)
    assert path is not None
    return path


def rewrite_meta(path, mutate):
    """Round-trip the npz, applying ``mutate`` to the decoded meta dict."""
    with np.load(path) as payload:
        arrays = {name: payload[name] for name in payload.files}
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    mutate(meta)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    ).copy()
    np.savez(path, **arrays)


class TestSchemaAndCorruption:
    def test_version_mismatch_raises(self, task, tmp_path):
        path = write_one_checkpoint(task, tmp_path)
        rewrite_meta(path, lambda meta: meta.update(format_version=CHECKPOINT_VERSION + 1))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload_raises(self, task, tmp_path):
        path = write_one_checkpoint(task, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            load_checkpoint(path)

    def test_flipped_bytes_fail_digest_check(self, task, tmp_path):
        intact = write_one_checkpoint(task, tmp_path / "intact")
        faults.configure(faults.parse_spec("checkpoint_corrupt"))
        try:
            trainer = make_trainer(
                task,
                num_epochs=1,
                checkpoint_dir=str(tmp_path / "corrupt"),
                checkpoint_every=1,
            )
            trainer.fit()
        finally:
            faults.clear()
        corrupted = latest_checkpoint(tmp_path / "corrupt")
        # Depending on where the flipped bytes land, either the zip CRC or
        # the payload digest catches it — both are loud CheckpointErrors.
        with pytest.raises(CheckpointError, match="corrupted|integrity"):
            load_checkpoint(corrupted)
        # The run from the intact directory still loads.
        assert load_checkpoint(intact).resume_state.next_epoch == 1

    def test_not_a_zipfile_raises(self, tmp_path):
        path = tmp_path / "ckpt-epoch00001-step000000001.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            load_checkpoint(path)

    def test_missing_meta_raises(self, task, tmp_path):
        path = write_one_checkpoint(task, tmp_path)
        with np.load(path) as payload:
            arrays = {n: payload[n] for n in payload.files if n != "meta"}
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_config_mismatch_raises(self, task, tmp_path):
        path = write_one_checkpoint(task, tmp_path)
        trainer = make_trainer(task, learning_rate=0.123)
        with pytest.raises(CheckpointError, match="config"):
            trainer.fit(resume_from=str(path))

    def test_volatile_config_fields_do_not_block_resume(self, task, tmp_path):
        # Checkpointing/supervision knobs and verbosity may change between
        # the writing run and the resuming run without breaking determinism.
        path = write_one_checkpoint(task, tmp_path)
        trainer = make_trainer(
            task,
            num_epochs=1,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=2,
            checkpoint_keep=1,
            verbose=True,
        )
        trainer.fit(resume_from=str(path))

    def test_checkpoint_is_a_valid_zip_with_digest(self, task, tmp_path):
        path = write_one_checkpoint(task, tmp_path)
        assert zipfile.is_zipfile(path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.meta["format_version"] == CHECKPOINT_VERSION
        assert checkpoint.meta["digest"]
        assert checkpoint.resume_state.next_epoch == 1
        assert checkpoint.resume_state.steps_into_epoch == 0


# ----------------------------------------------------------------------
# atomicity: a crash during the write never destroys the previous file
# ----------------------------------------------------------------------
class TestWriteAtomicity:
    def test_crash_before_rename_preserves_previous(self, task, tmp_path):
        first = write_one_checkpoint(task, tmp_path)
        reference = load_checkpoint(first)

        faults.configure(faults.parse_spec("checkpoint_crash"))
        try:
            trainer = make_trainer(
                task, num_epochs=1, checkpoint_dir=str(tmp_path), checkpoint_every=1
            )
            with pytest.raises(CheckpointError, match="injected checkpoint-write crash"):
                trainer.fit()
        finally:
            faults.clear()

        # No partial file appeared and the previous checkpoint is intact.
        assert list_checkpoints(tmp_path) == [first]
        assert not list(tmp_path.glob("*.tmp*"))
        survivor = load_checkpoint(first)
        assert survivor.meta["digest"] == reference.meta["digest"]


# ----------------------------------------------------------------------
# run directories written before trainer fields were retired
# ----------------------------------------------------------------------
class TestRetiredConfigFields:
    def test_old_run_directory_resumes_bit_identically(self, tmp_path, capsys):
        """``scheduled_subgraph_plans``, ``shm_exchange`` and
        ``prefetch_epochs`` only chose between numerically identical
        implementations and are gone from ``TrainerConfig``.  A run directory
        whose ``run.json`` and checkpoint fingerprint still name them, and
        whose checkpoint history still holds the retired
        ``data_wait_seconds_total``, must resume through ``repro resume``
        exactly like the uninterrupted run."""
        from repro.cli import main as cli_main

        def train(directory):
            rc = cli_main(
                [
                    "train",
                    "--scale", "0.3",
                    "--epochs", "2",
                    "--embedding-dim", "8",
                    "--negatives", "10",
                    "--batch-size", "128",
                    "--seed", "0",
                    "--checkpoint-dir", str(directory),
                    "--checkpoint-every", "1",
                    "--checkpoint-keep", "0",
                ]
            )
            assert rc == 0

        train(tmp_path / "reference")
        old = tmp_path / "old"
        train(old)
        first, last = list_checkpoints(old)
        last.unlink()  # the old run stopped after its first epoch
        retired = {
            "scheduled_subgraph_plans": False,
            "shm_exchange": True,
            "prefetch_epochs": 1,
        }
        run_file = old / "run.json"
        run = json.loads(run_file.read_text())
        run["trainer"].update(retired)
        run_file.write_text(json.dumps(run))

        def written_by_an_older_version(meta):
            meta["config"].update(retired)
            meta["history"]["data_wait_seconds_total"] = 0.5

        rewrite_meta(first, written_by_an_older_version)

        assert cli_main(["resume", "--checkpoint-dir", str(old)]) == 0
        assert "resumed from" in capsys.readouterr().out

        reference = load_checkpoint(latest_checkpoint(tmp_path / "reference"))
        resumed = load_checkpoint(latest_checkpoint(old))
        assert resumed.path.name == reference.path.name
        for name in ("epoch_losses", "validation_metrics"):
            assert resumed.meta["history"][name] == reference.meta["history"][name]
        assert set(resumed.parameters) == set(reference.parameters)
        for name, value in reference.parameters.items():
            assert np.array_equal(resumed.parameters[name], value), name
        for ours, theirs in zip(
            resumed.adam_m + resumed.adam_v, reference.adam_m + reference.adam_v
        ):
            assert np.array_equal(ours, theirs)
