"""DataPipeline tests: step structure, determinism, laziness, rng snapshots,
prep timing and failure paths.

The pipeline produces every batch on the training thread, on demand: a
fixed-seed stream is reproducible, nothing is drawn ahead of the consumer,
the rng snapshots around an epoch replay it exactly (mid-epoch checkpoints
depend on that), and a loader that fails mid-epoch fails ``fit()`` with its
own exception.
"""

import threading
import time
import traceback

import numpy as np
import pytest

from repro.core import Callback, CDRTrainer, NMCDR, TrainerConfig
from repro.data.dataloader import Batch, InteractionDataLoader
from repro.data.pipeline import DataPipeline, SerialDataPipeline


def make_loaders(task, batch_size=64, seed=9):
    rng = np.random.default_rng(seed)
    return {
        key: InteractionDataLoader(
            task.domain(key).split,
            batch_size=batch_size,
            rng=np.random.default_rng(rng.integers(0, 2**32 - 1)),
        )
        for key in ("a", "b")
    }


def collect_epochs(pipeline, num_epochs):
    return [list(pipeline.epoch()) for _ in range(num_epochs)]


def assert_same_stream(left, right):
    assert len(left) == len(right)
    for steps_a, steps_b in zip(left, right):
        assert len(steps_a) == len(steps_b)
        for step_a, step_b in zip(steps_a, steps_b):
            assert step_a.keys() == step_b.keys()
            for key in step_a:
                np.testing.assert_array_equal(step_a[key].users, step_b[key].users)
                np.testing.assert_array_equal(step_a[key].items, step_b[key].items)
                np.testing.assert_array_equal(step_a[key].labels, step_b[key].labels)


def batch_of(size):
    index = np.arange(size, dtype=np.int64)
    return Batch(index, index, np.ones(size))


class ListLoader:
    """Loader stand-in without an rng: replays a fixed list of batches."""

    def __init__(self, batches):
        self.batches = batches

    def __len__(self):
        return len(self.batches)

    def __iter__(self):
        return iter(self.batches)


class CountingLoader:
    """Loader wrapper that counts the batches it has handed out."""

    def __init__(self, loader):
        self.loader = loader
        self.yielded = 0

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        for batch in self.loader:
            self.yielded += 1
            yield batch


class TestSerialPipeline:
    def test_replicates_ziplongest_step_structure(self, tiny_task):
        loaders = make_loaders(tiny_task)
        lengths = {key: len(loader) for key, loader in loaders.items()}
        assert lengths["a"] != lengths["b"], "fixture should exercise unequal loaders"
        pipeline = DataPipeline(loaders)
        steps = list(pipeline.epoch())
        assert len(steps) == max(lengths.values())
        # The trailing steps only carry the longer domain.
        longer = max(lengths, key=lengths.get)
        for step in steps[min(lengths.values()) :]:
            assert set(step) == {longer}
        assert pipeline.prep_seconds > 0

    def test_serial_name_is_the_pipeline_class(self):
        # perfbench wraps ``SerialDataPipeline.epoch`` for its data.next span.
        assert SerialDataPipeline is DataPipeline

    def test_empty_batches_and_all_empty_steps_are_skipped(self):
        loaders = {
            "a": ListLoader([batch_of(2), batch_of(0), batch_of(0), batch_of(3)]),
            "b": ListLoader([batch_of(4), batch_of(0)]),
        }
        steps = list(DataPipeline(loaders).epoch())
        # Rows 2 and 3 hold no example in either domain and are never yielded.
        assert [sorted(step) for step in steps] == [["a", "b"], ["a"]]
        assert [len(batch) for batch in steps[0].values()] == [2, 4]
        assert len(steps[1]["a"]) == 3

    def test_same_seed_same_stream(self, tiny_task):
        first = collect_epochs(DataPipeline(make_loaders(tiny_task)), 3)
        second = collect_epochs(DataPipeline(make_loaders(tiny_task)), 3)
        assert_same_stream(first, second)

    def test_each_epoch_draws_fresh_batches(self, tiny_task):
        first, second = collect_epochs(DataPipeline(make_loaders(tiny_task)), 2)
        assert len(first) == len(second)
        for key in ("a", "b"):
            rows = [
                np.concatenate(
                    [
                        np.stack([step[key].users, step[key].items, step[key].labels], axis=1)
                        for step in steps
                        if key in step
                    ]
                )
                for steps in (first, second)
            ]
            # Re-shuffled every epoch...
            assert not np.array_equal(rows[0][:, 0], rows[1][:, 0])
            # ...over the same positives, with re-drawn negatives.
            positives = [np.unique(epoch[epoch[:, 2] == 1], axis=0) for epoch in rows]
            negatives = [np.unique(epoch[epoch[:, 2] == 0], axis=0) for epoch in rows]
            np.testing.assert_array_equal(positives[0], positives[1])
            assert not np.array_equal(negatives[0], negatives[1])

    def test_nothing_runs_ahead_of_the_consumer(self, tiny_task):
        loaders = {
            key: CountingLoader(loader) for key, loader in make_loaders(tiny_task).items()
        }
        assert min(len(loader) for loader in loaders.values()) >= 3
        pipeline = DataPipeline(loaders)
        steps = pipeline.epoch()
        assert [loader.yielded for loader in loaders.values()] == [0, 0]
        for consumed in range(1, 4):
            next(steps)
            assert [loader.yielded for loader in loaders.values()] == [consumed] * 2

    def test_prep_seconds_accumulate_across_epochs(self, tiny_task):
        pipeline = DataPipeline(make_loaders(tiny_task))
        totals = []
        for _ in range(3):
            list(pipeline.epoch())
            totals.append(pipeline.prep_seconds)
        assert 0 < totals[0] < totals[1] < totals[2]

    def test_prep_seconds_exclude_the_consumers_time(self):
        loaders = {"a": ListLoader([batch_of(2), batch_of(2)])}
        pipeline = DataPipeline(loaders)
        for _ in pipeline.epoch():
            time.sleep(0.2)
        # The two 0.2 s holds are the step's time, not the pipeline's.
        assert 0 < pipeline.prep_seconds < 0.2


class TestEpochRngSnapshots:
    def test_before_replays_the_epoch(self, tiny_task):
        loaders = make_loaders(tiny_task)
        pipeline = DataPipeline(loaders)
        list(pipeline.epoch())
        second = list(pipeline.epoch())
        for key, state in pipeline.epoch_rng_before.items():
            loaders[key]._rng.bit_generator.state = state
        assert_same_stream([second], [list(pipeline.epoch())])

    def test_after_is_set_once_the_epoch_is_fully_produced(self, tiny_task):
        loaders = make_loaders(tiny_task)
        pipeline = DataPipeline(loaders)
        steps = pipeline.epoch()
        next(steps)
        assert pipeline.epoch_rng_after is None
        for _ in steps:
            pass
        after = pipeline.epoch_rng_after
        assert after == {key: loader._rng.bit_generator.state for key, loader in loaders.items()}
        next(pipeline.epoch())
        assert pipeline.epoch_rng_before == after
        assert pipeline.epoch_rng_after is None

    def test_loaders_without_rng_are_left_out(self, tiny_task):
        loaders = make_loaders(tiny_task)
        loaders["b"] = ListLoader([batch_of(3)])
        pipeline = DataPipeline(loaders)
        list(pipeline.epoch())
        assert set(pipeline.epoch_rng_before) == {"a"}
        assert set(pipeline.epoch_rng_after) == {"a"}


class ExplodingLoader:
    """Loader whose iteration fails mid-epoch, like a bad index would."""

    def __init__(self, loader, explode_at=1):
        self.loader = loader
        self.explode_at = explode_at

    def __len__(self):
        return len(self.loader)

    def __iter__(self):
        for index, batch in enumerate(self.loader):
            if index == self.explode_at:
                raise IndexError("training example user index out of range [0, 7)")
            yield batch


class TestExceptionPropagation:
    def test_loader_exception_keeps_its_traceback(self, tiny_task):
        loaders = make_loaders(tiny_task)
        loaders["a"] = ExplodingLoader(loaders["a"], explode_at=1)
        pipeline = DataPipeline(loaders)
        steps = pipeline.epoch()
        # The step before the failure is delivered whole.
        assert set(next(steps)) == {"a", "b"}
        with pytest.raises(IndexError, match="out of range") as excinfo:
            next(steps)
        frames = traceback.extract_tb(excinfo.value.__traceback__)
        assert any(
            frame.name == "__iter__" and frame.filename == __file__ for frame in frames
        )
        assert pipeline.epoch_rng_after is None

    def test_invalid_examples_surface_through_trainer_fit(self, tiny_task, tiny_nmcdr_config):
        """End to end: a poisoned loader fails ``fit()`` with its own error."""
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        trainer = CDRTrainer(
            model,
            tiny_task,
            TrainerConfig(num_epochs=2, batch_size=64, eval_every=0),
        )
        trainer._loaders["b"] = ExplodingLoader(trainer._loaders["b"], explode_at=0)
        with pytest.raises(IndexError, match="out of range"):
            trainer.fit()


class ThreadRecorder(Callback):
    """Records, after every step, the running thread and the live threads."""

    def __init__(self):
        self.steps = []

    def on_step_end(self, context, step, loss):
        self.steps.append((threading.get_ident(), frozenset(threading.enumerate())))


class TestTrainerThreads:
    def make_trainer(self, tiny_task, tiny_nmcdr_config, recorder, num_epochs):
        return CDRTrainer(
            NMCDR(tiny_task, tiny_nmcdr_config),
            tiny_task,
            TrainerConfig(num_epochs=num_epochs, batch_size=128, eval_every=0),
            callbacks=[recorder],
        )

    def test_fit_runs_every_step_on_the_calling_thread(self, tiny_task, tiny_nmcdr_config):
        recorder = ThreadRecorder()
        trainer = self.make_trainer(tiny_task, tiny_nmcdr_config, recorder, num_epochs=2)
        before = frozenset(threading.enumerate())
        history = trainer.fit()
        assert len(recorder.steps) == history.num_batches > 0
        assert {ident for ident, _ in recorder.steps} == {threading.get_ident()}
        # fit() starts no thread of its own, during the run or after it.
        assert all(live <= before for _, live in recorder.steps)
        assert frozenset(threading.enumerate()) <= before

    def test_interrupt_in_a_step_propagates_out_of_fit(self, tiny_task, tiny_nmcdr_config):
        recorder = ThreadRecorder()
        trainer = self.make_trainer(tiny_task, tiny_nmcdr_config, recorder, num_epochs=3)

        def explode(batches):
            raise KeyboardInterrupt

        trainer.model.compute_batch_loss = explode
        before = frozenset(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            trainer.fit()
        assert recorder.steps == []
        assert frozenset(threading.enumerate()) <= before
