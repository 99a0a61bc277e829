"""End-to-end tests of the NMCDR model, ablation variants, trainer and stability analysis."""

import numpy as np
import pytest

from repro.core import (
    CDRTrainer,
    NMCDR,
    TrainerConfig,
    VARIANT_NAMES,
    build_variant,
    empirical_prediction_deviation,
    spectral_norm,
    stability_report,
    theoretical_stability_bound,
    variant_config,
)
from repro.data.dataloader import Batch
from repro.metrics import evaluator as evaluator_module


class TestForwardPipeline:
    def test_stage_representations_present_and_shaped(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        reps = model.forward_representations()
        for key in ("a", "b"):
            num_users = tiny_task.domain(key).num_users
            for stage in ("user_g0", "user_g1", "user_g2", "user_g3", "user_g4"):
                assert reps[key][stage].shape == (num_users, tiny_nmcdr_config.embedding_dim)
            assert reps[key]["items"].shape[0] == tiny_task.domain(key).num_items

    def test_stages_change_representations(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        reps = model.forward_representations()["a"]
        assert not np.allclose(reps["user_g1"].data, reps["user_g2"].data)
        assert not np.allclose(reps["user_g2"].data, reps["user_g3"].data)
        assert not np.allclose(reps["user_g3"].data, reps["user_g4"].data)

    def test_ablation_flags_skip_stages(self, tiny_task, tiny_nmcdr_config):
        config = tiny_nmcdr_config.variant(
            use_intra_matching=False, use_inter_matching=False, use_complementing=False
        )
        model = NMCDR(tiny_task, config)
        reps = model.forward_representations()["a"]
        assert np.allclose(reps["user_g1"].data, reps["user_g2"].data)
        assert np.allclose(reps["user_g2"].data, reps["user_g3"].data)
        assert np.allclose(reps["user_g3"].data, reps["user_g4"].data)

    def test_batch_loss_is_finite_and_backpropagates(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        batch = Batch(
            users=np.array([0, 1, 2]), items=np.array([0, 1, 2]), labels=np.array([1.0, 0.0, 1.0])
        )
        loss = model.compute_batch_loss({"a": batch, "b": None})
        assert np.isfinite(loss.item())
        loss.backward()
        grads = [p.grad for p in model.parameters() if p.grad is not None]
        assert len(grads) > 0

    def test_companion_ablation_reduces_loss_terms(self, tiny_task, tiny_nmcdr_config):
        batch = Batch(users=np.array([0, 1]), items=np.array([0, 1]), labels=np.array([1.0, 0.0]))
        full = NMCDR(tiny_task, tiny_nmcdr_config)
        no_sup = NMCDR(tiny_task, tiny_nmcdr_config.variant(use_companion=False))
        full_loss = full.compute_batch_loss({"a": batch})
        no_sup_loss = no_sup.compute_batch_loss({"a": batch})
        # with identical seeds the companion version adds four extra BCE terms
        assert full_loss.item() > no_sup_loss.item()

    def test_empty_batches_rejected(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        with pytest.raises(ValueError):
            model.compute_batch_loss({"a": None, "b": None})

    def test_score_interface(self, trained_nmcdr, tiny_task):
        users = np.array([0, 1, 2, 3])
        items = np.array([0, 1, 0, 1])
        scores = trained_nmcdr.score("a", users, items)
        assert scores.shape == (4,)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_score_is_deterministic_from_cache(self, trained_nmcdr):
        users = np.array([0, 1, 2])
        items = np.array([1, 2, 3])
        first = trained_nmcdr.score("a", users, items)
        second = trained_nmcdr.score("a", users, items)
        assert np.allclose(first, second)

    def test_invalidate_cache_forces_refresh(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        model.prepare_for_evaluation()
        assert model._cache is not None
        model.invalidate_cache()
        assert model._cache is None

    def test_unknown_domain_key(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        with pytest.raises(KeyError):
            model._params("z")


class TestVariants:
    def test_variant_names(self):
        assert set(VARIANT_NAMES) == {"full", "w/o-Igm", "w/o-Cgm", "w/o-Inc", "w/o-Sup"}

    def test_variant_config_flags(self):
        assert not variant_config("w/o-Igm").use_intra_matching
        assert not variant_config("w/o-Cgm").use_inter_matching
        assert not variant_config("w/o-Inc").use_complementing
        assert not variant_config("w/o-Sup").use_companion
        assert variant_config("full").use_intra_matching

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            variant_config("w/o-Everything")

    def test_build_variant(self, tiny_task):
        model = build_variant("w/o-Cgm", tiny_task)
        assert isinstance(model, NMCDR)
        assert not model.config.use_inter_matching


class TestTrainer:
    def test_loss_decreases_over_training(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        trainer = CDRTrainer(
            model, tiny_task, TrainerConfig(num_epochs=4, batch_size=256, num_eval_negatives=20)
        )
        history = trainer.fit()
        assert len(history.epoch_losses) == 4
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        assert history.train_seconds_per_batch > 0

    def test_trained_model_beats_random_ranking(self, trained_nmcdr, tiny_task):
        trainer = CDRTrainer(
            trained_nmcdr, tiny_task, TrainerConfig(num_epochs=1, num_eval_negatives=30)
        )
        metrics = trainer.evaluate(subset="test")
        chance_hr = 10.0 / 31.0
        assert metrics["a"]["hr@10"] > chance_hr
        assert metrics["b"]["hr@10"] > chance_hr

    def test_early_stopping_restores_best_state(self, tiny_task, tiny_nmcdr_config):
        model = NMCDR(tiny_task, tiny_nmcdr_config)
        trainer = CDRTrainer(
            model,
            tiny_task,
            TrainerConfig(
                num_epochs=3,
                eval_every=1,
                early_stopping_patience=1,
                num_eval_negatives=20,
                batch_size=512,
            ),
        )
        history = trainer.fit()
        assert history.best_epoch >= 0
        assert history.best_state is not None
        assert len(history.validation_metrics) >= 1

    def test_evaluate_returns_both_domains(self, trained_nmcdr, tiny_task):
        trainer = CDRTrainer(trained_nmcdr, tiny_task, TrainerConfig(num_epochs=1, num_eval_negatives=15))
        metrics = trainer.evaluate()
        assert set(metrics) == {"a", "b"}
        for domain_metrics in metrics.values():
            assert {"hr@10", "ndcg@10", "mrr"} <= set(domain_metrics)

    def test_ranking_candidates_are_drawn_once_per_subset_and_domain(
        self, tiny_task, tiny_nmcdr_config, monkeypatch
    ):
        domain_of = {id(tiny_task.domain(key).split): key for key in ("a", "b")}
        draws = []
        build = evaluator_module.build_ranking_candidates

        def counting_build(split, **kwargs):
            draws.append((kwargs["subset"], domain_of[id(split)]))
            return build(split, **kwargs)

        monkeypatch.setattr(evaluator_module, "build_ranking_candidates", counting_build)
        config = TrainerConfig(num_epochs=1, num_eval_negatives=15, seed=4)
        subsets = ("valid", "test", "valid")
        # Every evaluation forward draws matching pools from the model's rng,
        # so the reference evaluates an identical twin model in the same
        # order, each time through a fresh trainer.
        trainer = CDRTrainer(NMCDR(tiny_task, tiny_nmcdr_config), tiny_task, config)
        metrics = [trainer.evaluate(subset) for subset in subsets]
        assert sorted(draws) == [("test", "a"), ("test", "b"), ("valid", "a"), ("valid", "b")]
        twin = NMCDR(tiny_task, tiny_nmcdr_config)
        for subset, result in zip(subsets, metrics):
            assert result == CDRTrainer(twin, tiny_task, config).evaluate(subset)


class TestStability:
    def test_spectral_norm(self):
        matrix = np.diag([3.0, 1.0])
        assert spectral_norm(matrix) == pytest.approx(3.0)
        assert spectral_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_theoretical_bound_positive(self, trained_nmcdr):
        bound = theoretical_stability_bound(trained_nmcdr, "a")
        assert bound > 0
        assert np.isfinite(bound)

    def test_empirical_deviation_scales_with_perturbation(self, trained_nmcdr):
        small = empirical_prediction_deviation(
            trained_nmcdr, "a", perturbation_scale=0.01, rng=np.random.default_rng(0)
        )
        large = empirical_prediction_deviation(
            trained_nmcdr, "a", perturbation_scale=0.5, rng=np.random.default_rng(0)
        )
        assert large["mean_deviation"] >= small["mean_deviation"]

    def test_perturbation_restores_weights(self, trained_nmcdr):
        params = trained_nmcdr._params("a")
        before = params.user_embedding.weight.data.copy()
        empirical_prediction_deviation(trained_nmcdr, "a", rng=np.random.default_rng(1))
        assert np.allclose(before, params.user_embedding.weight.data)

    def test_stability_report_fields(self, trained_nmcdr):
        report = stability_report(trained_nmcdr, "a", rng=np.random.default_rng(2))
        as_dict = report.as_dict()
        assert {"bound_coefficient", "mean_deviation", "max_deviation"} <= set(as_dict)
        assert report.theoretical_bound_coefficient > 0
