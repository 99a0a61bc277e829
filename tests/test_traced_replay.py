"""Traced step replay: bit-identity gates, guard fallback, cache bounds.

The contract gated here (``repro.tensor.trace``):

* **Bit-identity in float64** (and float32 for NMCDR) — with
  ``TrainerConfig(traced_steps=True)`` training produces bit-identical
  epoch losses, validation metrics and final parameters to eager
  execution, for NMCDR and the graph baselines, across all three
  executors, composing with sampled plans.  This is an
  *exactness* guarantee: replay re-runs the recorded kernels with the same
  arithmetic in the same order.
* **Guards, not faith** — a replayed step re-checks the op sequence, the
  operand wiring and operand dtypes; batch *shapes* may vary (slots
  rebind), anything structural falls back, rewinds the model's rng
  streams, re-traces, and still matches eager bit-for-bit.
* **Bounded cache** — the program cache is a small LRU; overflowing it
  evicts (releasing arena slabs) instead of growing without bound, and
  untraceable sections poison their key and stay eager.
"""

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
from repro.core.engine import StepExecutor
from repro.data import load_scenario
from repro.data.pipeline import DataPipeline
from repro.tensor import Tensor, ops
from repro.tensor import engine as tensor_engine
from repro.tensor.trace import TraceRuntime, TraceStats, check_traceable

pytestmark = pytest.mark.traced


@pytest.fixture(scope="module")
def task():
    return build_task(
        load_scenario("cloth_sport", scale=0.3, seed=13),
        head_threshold=7,
    )


def fit_history(task, model_name="NMCDR", collect_params=False, **config_overrides):
    model = build_model(model_name, task, embedding_dim=16, seed=3)
    config = TrainerConfig(
        num_epochs=2,
        batch_size=128,
        seed=11,
        eval_every=1,
        num_eval_negatives=20,
        **config_overrides,
    )
    trainer = CDRTrainer(model, task, config)
    history = trainer.fit()
    if collect_params:
        params = {key: value.copy() for key, value in model.state_dict().items()}
        return history, params, trainer
    return history


def assert_bit_identical(task, model_name="NMCDR", **overrides):
    eager_history, eager_params, _ = fit_history(
        task, model_name, collect_params=True, **overrides
    )
    traced_history, traced_params, trainer = fit_history(
        task, model_name, collect_params=True, traced_steps=True, **overrides
    )
    assert eager_history.epoch_losses == traced_history.epoch_losses
    assert eager_history.validation_metrics == traced_history.validation_metrics
    assert eager_params.keys() == traced_params.keys()
    for key in eager_params:
        np.testing.assert_array_equal(eager_params[key], traced_params[key])
    return trainer


# ----------------------------------------------------------------------
# fixed-seed bit-identity gates (float64, and float32 for NMCDR)
# ----------------------------------------------------------------------
#: Sampled training at 1 hop with a fanout cap: a bounded per-batch subgraph.
FANOUT_SAMPLING = {
    "sampled_subgraph_training": True,
    "subgraph_num_hops": 1,
    "subgraph_fanout": 8,
}


class TestSerialBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nmcdr_full_graph(self, task, dtype):
        with tensor_engine.engine_dtype(dtype):
            assert_bit_identical(task)

    @pytest.mark.parametrize(
        "dtype,sampling",
        [
            ("float64", {"sampled_subgraph_training": True}),
            ("float32", FANOUT_SAMPLING),
        ],
        ids=["float64", "float32-fanout"],
    )
    def test_nmcdr_sampled(self, task, dtype, sampling):
        with tensor_engine.engine_dtype(dtype):
            assert_bit_identical(task, **sampling)

    @pytest.mark.parametrize("model_name", ["GA-DTCDR", "HeroGraph"])
    def test_graph_baselines_sampled(self, task, model_name):
        assert_bit_identical(task, model_name, sampled_subgraph_training=True)

    @pytest.mark.parametrize(
        "dtype,sampling",
        [("float64", {}), ("float32", {}), ("float32", FANOUT_SAMPLING)],
        ids=["float64", "float32", "float32-fanout"],
    )
    def test_replay_actually_happens(self, task, dtype, sampling):
        """The identity gate is vacuous if every step silently ran eager.

        Batches of 32 make a 90-step stream, long enough that its two
        recordings leave the hit rate above 0.95.
        """
        with tensor_engine.engine_dtype(dtype):
            model = build_model("NMCDR", task, embedding_dim=16, seed=3)
            config = TrainerConfig(
                num_epochs=2,
                batch_size=32,
                seed=11,
                eval_every=0,
                traced_steps=True,
                **sampling,
            )
            trainer = CDRTrainer(model, task, config)
            engine = trainer.build_engine()
            engine.fit(DataPipeline(trainer._loaders))
        stats = engine.executor.trace_stats
        assert stats is not None
        assert stats["hits"] > 0
        assert stats["fallbacks"] == 0
        assert stats["untraceable"] == 0
        assert stats["eager"] == 0
        assert stats["hits"] + stats["misses"] == stats["sections"]
        assert stats["hit_rate"] >= 0.95
        assert stats["arena"]["slabs"] > 0


@pytest.mark.slow
class TestShardedBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_nmcdr_sharded(self, task, dtype):
        with tensor_engine.engine_dtype(dtype):
            trainer = assert_bit_identical(task, executor="sharded", n_shards=2)
        stats = trainer._executor.trace_stats
        assert stats["hits"] > 0
        assert stats["untraceable"] == 0

    def test_nmcdr_sharded_sampled(self, task):
        # Each worker replays its recorded programs over plans built around
        # the broadcast pools; the plan structure keys the program cache.
        trainer = assert_bit_identical(
            task, executor="sharded", n_shards=2, sampled_subgraph_training=True
        )
        stats = trainer._executor.trace_stats
        assert stats["hits"] > 0
        assert stats["untraceable"] == 0


# ----------------------------------------------------------------------
# runtime-level guard and cache behaviour
# ----------------------------------------------------------------------
@pytest.fixture()
def runtime():
    rt = TraceRuntime()
    rt.install()
    yield rt
    rt.uninstall()


def linear_relu_section(weight, x_data):
    """One forward+backward over the patched ops; returns (loss, grad)."""

    def fn():
        weight.zero_grad()
        x = Tensor(x_data)
        hidden = ops.relu(ops.matmul(x, weight))
        loss = ops.mean(hidden)
        loss.backward()
        return float(loss.item()), weight.grad.copy()

    return fn


def eager_linear_relu(weight_data, x_data):
    """Reference values computed without any runtime installed."""
    y = x_data @ weight_data
    mask = y > 0
    loss = float(np.mean(np.where(mask, y, 0.0)))
    seed = np.full(y.shape, 1.0 / y.size)
    grad = x_data.T @ np.where(mask, seed, 0.0)
    return loss, grad


class TestGuardsAndFallback:
    def test_shape_polymorphic_replay_binds_without_fallback(self, runtime, rng):
        weight = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        for rows in (8, 3, 17, 3, 64):
            x_data = rng.standard_normal((rows, 6))
            loss, grad = runtime.run_section(
                "poly", linear_relu_section(weight, x_data)
            )
            ref_loss, ref_grad = eager_linear_relu(weight.data, x_data)
            assert loss == ref_loss
            np.testing.assert_array_equal(grad, ref_grad)
        assert runtime.stats.misses == 1
        assert runtime.stats.hits == 4
        assert runtime.stats.fallbacks == 0
        # Rebinding happened (the arena re-allocated for new shapes) but
        # repeated shapes reused their slabs.
        assert runtime.arena.rebinds > 0

    def test_raw_array_dtype_change_falls_back_and_retraces(self, runtime, rng):
        weight = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        scale64 = np.full((4,), 2.0, dtype=np.float64)
        scale32 = scale64.astype(np.float32)

        def section(scale):
            def fn():
                weight.zero_grad()
                x = Tensor(np.ones((5, 4)))
                loss = ops.mean(ops.mul(ops.matmul(x, weight), scale))
                loss.backward()
                return float(loss.item()), weight.grad.copy()

            return fn

        first = runtime.run_section("dtype", section(scale64))
        second = runtime.run_section("dtype", section(scale64))
        assert first[0] == second[0]  # replay hit, bit-identical
        np.testing.assert_array_equal(first[1], second[1])
        flipped = runtime.run_section("dtype", section(scale32))
        assert runtime.stats.fallbacks == 1
        assert runtime.stats.last_fallback
        # The re-trace ran eagerly with the new operand; from here the new
        # program replays again.
        again = runtime.run_section("dtype", section(scale32))
        assert flipped[0] == again[0]
        np.testing.assert_array_equal(flipped[1], again[1])
        assert runtime.stats.hits == 2
        assert runtime.stats.misses == 2

    def test_op_sequence_change_falls_back_bit_identically(self, runtime, rng):
        weight = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        activation = {"use_tanh": False}

        def fn():
            weight.zero_grad()
            x = Tensor(np.linspace(-1.0, 1.0, 30).reshape(5, 6))
            y = ops.matmul(x, weight)
            hidden = ops.tanh(y) if activation["use_tanh"] else ops.relu(y)
            loss = ops.mean(hidden)
            loss.backward()
            return float(loss.item()), weight.grad.copy()

        runtime.run_section("seq", fn)
        runtime.run_section("seq", fn)
        assert runtime.stats.hits == 1

        activation["use_tanh"] = True
        traced_loss, traced_grad = runtime.run_section("seq", fn)
        assert runtime.stats.fallbacks == 1
        runtime.uninstall()
        eager_loss, eager_grad = fn()
        runtime.install()
        assert traced_loss == eager_loss
        np.testing.assert_array_equal(traced_grad, eager_grad)

    def test_fallback_rewinds_rng_streams(self, runtime):
        weight = Tensor(np.eye(3), requires_grad=True)
        activation = {"use_tanh": False}

        def make_fn(generator):
            def fn():
                weight.zero_grad()
                scale = float(generator.standard_normal())
                x = Tensor(np.full((2, 3), scale))
                y = ops.matmul(x, weight)
                hidden = ops.tanh(y) if activation["use_tanh"] else ops.relu(y)
                loss = ops.mean(hidden)
                loss.backward()
                return float(loss.item())

            return fn

        traced_rng = np.random.default_rng(99)
        fn = make_fn(traced_rng)
        values = [runtime.run_section("rng", fn, rng_sources=(traced_rng,))]
        values.append(runtime.run_section("rng", fn, rng_sources=(traced_rng,)))
        activation["use_tanh"] = True  # third call: replay fails mid-section,
        values.append(  # after the rng draw — the rewind must undo that draw
            runtime.run_section("rng", fn, rng_sources=(traced_rng,))
        )
        values.append(runtime.run_section("rng", fn, rng_sources=(traced_rng,)))
        assert runtime.stats.fallbacks == 1

        runtime.uninstall()
        reference_rng = np.random.default_rng(99)
        reference_fn = make_fn(reference_rng)
        activation["use_tanh"] = False
        expected = [reference_fn(), reference_fn()]
        activation["use_tanh"] = True
        expected.extend([reference_fn(), reference_fn()])
        runtime.install()
        assert values == expected

    def test_no_stale_buffers_across_replays(self, runtime, rng):
        """Arena reuse must never leak one step's values into the next."""
        weight = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        inputs = [rng.standard_normal((7, 6)) for _ in range(4)]
        expected = [eager_linear_relu(weight.data, x) for x in inputs]
        for x_data, (ref_loss, ref_grad) in zip(inputs, expected):
            loss, grad = runtime.run_section(
                "fresh", linear_relu_section(weight, x_data)
            )
            assert loss == ref_loss
            np.testing.assert_array_equal(grad, ref_grad)

    def test_gradients_do_not_accumulate_across_replays(self, runtime, rng):
        """Replay seeds gradients exactly like eager zero-then-backward."""
        weight = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        x_data = rng.standard_normal((5, 4))
        _, first = runtime.run_section("acc", linear_relu_section(weight, x_data))
        _, second = runtime.run_section("acc", linear_relu_section(weight, x_data))
        _, third = runtime.run_section("acc", linear_relu_section(weight, x_data))
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, third)


class TestCacheBounds:
    def test_lru_eviction_bounds_the_program_cache(self, rng):
        runtime = TraceRuntime(max_programs=2)
        runtime.install()
        try:
            weight = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            x_data = rng.standard_normal((4, 3))
            for index in range(5):
                runtime.run_section(
                    ("key", index), linear_relu_section(weight, x_data)
                )
            assert len(runtime._programs) <= 2
            assert runtime.stats.evictions == 3
            # Evicted slabs were handed back to the arena accounting.
            assert runtime.arena.slabs <= 2 * 5  # bounded, not 5 programs' worth
        finally:
            runtime.uninstall()

    def test_untraceable_sections_poison_their_key_and_stay_eager(self, runtime):
        def fn():
            # backward() with an explicit seed gradient is outside the traced
            # protocol (programs only capture scalar-rooted passes), so the
            # recording marks the section untraceable and poisons the key.
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            y = ops.mul(x, x)
            y.backward(np.ones((2, 2)))
            return 1.0

        assert runtime.run_section("poison", fn) == 1.0
        assert runtime.stats.untraceable == 1
        assert runtime.run_section("poison", fn) == 1.0
        assert runtime.stats.eager == 1
        assert runtime.stats.hits == 0

    def test_sections_do_not_nest(self, runtime):
        def outer():
            return runtime.run_section("inner", lambda: 1)

        with pytest.raises(RuntimeError, match="nest"):
            runtime.run_section("outer", outer)

    def test_second_runtime_refuses_to_install(self, runtime):
        other = TraceRuntime()
        with pytest.raises(RuntimeError, match="already installed"):
            other.install()

    def test_stats_merge_sums_counters(self):
        a = TraceStats()
        a.hits, a.misses, a.fallbacks = 8, 2, 1
        b = TraceStats()
        b.hits, b.misses, b.evictions = 4, 1, 2
        merged = TraceStats.merge(
            [
                dict(
                    a.as_dict(),
                    arena={"slabs": 3, "nbytes": 100, "rebinds": 1, "reuses": 1},
                ),
                dict(
                    b.as_dict(),
                    arena={"slabs": 2, "nbytes": 50, "rebinds": 0, "reuses": 2},
                ),
                None,
            ]
        )
        assert merged["hits"] == 12
        assert merged["misses"] == 3
        assert merged["fallbacks"] == 1
        assert merged["evictions"] == 2
        # ``sections`` counts attempts: a fallback section contributes both
        # its failed replay and the re-record miss.
        assert merged["sections"] == 16
        assert merged["arena"] == {
            "slabs": 5,
            "nbytes": 150,
            "rebinds": 1,
            "reuses": 3,
        }
        assert merged["hit_rate"] == pytest.approx(12 / 16)


# ----------------------------------------------------------------------
# configuration guard rails
# ----------------------------------------------------------------------
class TestTraceability:
    def test_dropout_is_refused_upfront(self, task):
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3, dropout=0.2))
        with pytest.raises(ValueError, match="dropout"):
            check_traceable(model)
        from repro.optim import Adam

        executor = StepExecutor(model, Adam(model.parameters(), lr=1e-3), traced=True)
        with pytest.raises(ValueError, match="dropout"):
            executor.open()

    def test_eval_mode_dropout_is_traceable(self, task):
        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3, dropout=0.2))
        model.eval()
        check_traceable(model)

    def test_executor_close_releases_the_runtime(self, task):
        from repro.optim import Adam

        model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
        executor = StepExecutor(model, Adam(model.parameters(), lr=1e-3), traced=True)
        executor.open()
        assert executor._trace_runtime is not None
        executor.close()
        assert executor.trace_stats is not None
        # A fresh runtime can install afterwards (no dangling patches).
        follow_up = TraceRuntime()
        follow_up.install()
        follow_up.uninstall()

    def test_engine_dtype_is_part_of_the_section_key(self, task, rng):
        """A dtype flip must re-trace, not replay a stale program."""
        runtime = TraceRuntime()
        runtime.install()
        try:
            weight64 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            x_data = rng.standard_normal((4, 3))
            key64 = ("step", tensor_engine.get_dtype().str)
            runtime.run_section(key64, linear_relu_section(weight64, x_data))
            with tensor_engine.engine_dtype("float32"):
                key32 = ("step", tensor_engine.get_dtype().str)
                assert key32 != key64
                weight32 = Tensor(
                    rng.standard_normal((3, 3)), requires_grad=True
                )
                runtime.run_section(
                    key32, linear_relu_section(weight32, x_data)
                )
            assert runtime.stats.misses == 2
            assert runtime.stats.fallbacks == 0
        finally:
            runtime.uninstall()
