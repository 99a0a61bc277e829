"""Shared fixtures for the test suite.

The heavier fixtures (a small synthetic scenario, its task bundle and a
briefly trained NMCDR model) are session-scoped so the many tests that need
them do not pay the setup cost repeatedly.

Hypothesis profiles: ``default`` draws the same examples on every run and
keeps no example database, so a tier-1 failure reproduces from the test id
alone and no run replays another's failures.  (Hypothesis still caches the
constants it parses from source under ``.hypothesis/constants/``.)
``deep`` (CI's full lane, ``--hypothesis-profile deep``) draws fresh
examples every run and, through :func:`hypothesis_budget.examples`, ten
times as many.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from hypothesis_budget import BASE_MAX_EXAMPLES
from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
from repro.data import load_scenario, preprocess_scenario

settings.register_profile(
    "default", derandomize=True, database=None, max_examples=BASE_MAX_EXAMPLES
)
settings.register_profile(
    "deep", derandomize=False, database=None, max_examples=10 * BASE_MAX_EXAMPLES
)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small preprocessed Cloth–Sport style scenario."""
    dataset = load_scenario("cloth_sport", scale=0.3, seed=3)
    return preprocess_scenario(dataset, min_interactions=3)


@pytest.fixture(scope="session")
def tiny_task(tiny_dataset):
    """Task bundle (splits, graphs, overlap) built from the tiny dataset."""
    return build_task(tiny_dataset, head_threshold=5)


@pytest.fixture(scope="session")
def tiny_nmcdr_config():
    return NMCDRConfig(
        embedding_dim=16,
        max_matching_neighbors=32,
        head_threshold=5,
        seed=0,
    )


@pytest.fixture(scope="session")
def trained_nmcdr(tiny_task, tiny_nmcdr_config):
    """An NMCDR model trained for a couple of epochs on the tiny task."""
    model = NMCDR(tiny_task, tiny_nmcdr_config)
    trainer = CDRTrainer(
        model,
        tiny_task,
        TrainerConfig(num_epochs=2, batch_size=256, num_eval_negatives=30, seed=0),
    )
    trainer.fit()
    model.prepare_for_evaluation()
    return model


@pytest.fixture()
def rng():
    """Fresh deterministic generator for individual tests."""
    return np.random.default_rng(12345)
