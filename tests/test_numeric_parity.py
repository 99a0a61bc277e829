"""Fixed-seed numeric parity of the optimised hot path.

The loss trajectory below was recorded from the seed implementation (before
any fused kernels, operator caching or batched loss paths existed) with the
exact run replayed here.  The optimised engine must reproduce it to 1e-8 in
float64 mode — the fusions are required to be numerically equivalent, not
merely approximately right.
"""

import numpy as np

from repro.core import NMCDR, NMCDRConfig, build_task
from repro.data import NegativeSampler, load_scenario
from repro.data.dataloader import InteractionDataLoader
from repro.optim import Adam
from repro.tensor import engine

#: Loss values of the first six fixed-seed training steps of the seed code.
SEED_LOSSES = [
    6.924278787436002,
    6.951567350250666,
    6.9396251222923775,
    6.925903037781144,
    6.967300833513108,
    6.973174028664451,
]


class PerUserNegativeSampler(NegativeSampler):
    """The seed implementation's training negatives: one ``sample_for_user``
    call per positive, in row order.

    The recorded losses were produced against this rng stream, and this
    suite checks *engine* parity, not sampler equality; production loaders
    draw with the vectorised ``NegativeSampler.sample_pairs`` instead.
    """

    def sample_pairs(self, users, negatives_per_positive=1):
        out = np.empty((len(users), negatives_per_positive), dtype=np.int64)
        for row, user in enumerate(users):
            out[row] = self.sample_for_user(int(user), negatives_per_positive)
        return out


def per_user_loader(split, batch_size, rng):
    """A production loader whose epochs draw negatives per user."""
    loader = InteractionDataLoader(split, batch_size=batch_size, rng=rng)
    loader._sampler = PerUserNegativeSampler(split.domain, rng=loader._rng)
    return loader


def run_smoke_losses(num_steps: int = 6, sampled_subgraphs: bool = False):
    """Replay the recorded training run and return the per-step losses."""
    scenario = load_scenario("cloth_sport", scale=0.3, seed=13)
    task = build_task(scenario, head_threshold=7)
    model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
    if sampled_subgraphs:
        model.configure_subgraph_sampling(True)
    optimizer = Adam(model.parameters(), lr=1e-3)
    loaders = {
        key: per_user_loader(
            task.domain(key).split, batch_size=128, rng=np.random.default_rng(100 + i)
        )
        for i, key in enumerate(("a", "b"))
    }
    iterator_a, iterator_b = iter(loaders["a"]), iter(loaders["b"])
    losses = []
    for _ in range(num_steps):
        batch_a, batch_b = next(iterator_a, None), next(iterator_b, None)
        optimizer.zero_grad()
        loss = model.compute_batch_loss({"a": batch_a, "b": batch_b})
        loss.backward()
        optimizer.step()
        model.invalidate_cache()
        losses.append(loss.item())
    return losses


def test_float64_losses_match_seed_run():
    assert engine.get_dtype() == np.dtype(np.float64)
    losses = run_smoke_losses()
    assert np.allclose(losses, SEED_LOSSES, atol=1e-8, rtol=0.0), (
        f"float64 smoke run diverged from the seed implementation: {losses}"
    )


def test_sampled_subgraph_losses_match_seed_run():
    """Sampled-subgraph training at full coverage replays the exact seed run."""
    losses = run_smoke_losses(sampled_subgraphs=True)
    assert np.allclose(losses, SEED_LOSSES, atol=1e-8, rtol=0.0), (
        f"sampled-subgraph smoke run diverged from the seed implementation: {losses}"
    )


def test_float32_mode_runs_and_stays_close():
    """The float32 fast path trains the same model to ~1e-3 of float64."""
    with engine.engine_dtype("float32"):
        losses = run_smoke_losses()
    assert all(np.isfinite(losses))
    assert np.allclose(losses, SEED_LOSSES, atol=5e-3), (
        f"float32 smoke run drifted too far from float64: {losses}"
    )


def test_float32_paper_table_metrics_within_tolerance():
    """The float32 fast path reproduces the paper-table ranking metrics.

    This is the safety assertion behind the float32 fast path
    (``engine_dtype("float32")``, ``repro profile --dtype float32``):
    training *and* scoring a model entirely in float32 must
    leave every ranking metric within 1e-4 of the float64 reference (the
    parity suite itself stays float64).
    """
    from repro.core import CDRTrainer, TrainerConfig

    scenario = load_scenario("cloth_sport", scale=0.3, seed=13)
    task = build_task(scenario, head_threshold=7)

    def train_and_evaluate(dtype):
        with engine.engine_dtype(dtype):
            model = NMCDR(task, NMCDRConfig(embedding_dim=16, seed=3))
            trainer = CDRTrainer(
                model, task, TrainerConfig(num_epochs=3, batch_size=128, seed=11)
            )
            trainer.fit()
            return trainer.evaluate("test")

    reference = train_and_evaluate("float64")
    fast = train_and_evaluate("float32")
    for key, metrics in reference.items():
        for name, value in metrics.items():
            assert abs(value - fast[key][name]) <= 1e-4, (
                f"float32 {key}/{name} drifted: {fast[key][name]} vs {value}"
            )


def test_float32_tensors_use_float32_storage():
    with engine.engine_dtype("float32"):
        from repro.tensor import Tensor

        tensor = Tensor([1.0, 2.0], requires_grad=True)
        (tensor * tensor).sum().backward()
        assert tensor.data.dtype == np.float32
        assert tensor.grad.dtype == np.float32
    assert engine.get_dtype() == np.dtype(np.float64)
