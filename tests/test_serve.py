"""Serving-tier tests: protocol adoption, store invariants, scorer exactness.

The load-bearing guarantees gated here:

* store-backed top-K answers are bit-identical (float64) to full-model
  rescoring, including cold-start users routed through the matching module;
* an incremental refresh after a parameter update produces bit-identical
  tables to a full rebuild from the same rng snapshot, and a head-only
  update refreshes without any forward;
* stale reads beyond the configured bound raise instead of serving old rows;
* the capability protocol replaced every ``hasattr`` probe in core/serve;
* ``load_checkpoint(..., params_only=True)`` loads moment-stripped archives
  that a full load correctly rejects;
* the ``repro serve`` CLI answers a request file exactly (the CI smoke).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import build_model
from repro.core import CDRTrainer, NMCDR, NMCDRConfig, TrainerConfig, build_task
from repro.core.checkpoint import (
    CheckpointError,
    ResumeState,
    _payload_digest,
    generator_state,
    load_checkpoint,
    save_checkpoint,
    set_generator_state,
)
from repro.core.engine import TrainingHistory
from repro.data.schema import CDRDataset, DomainData
from repro.nn import ModelCapabilities, Module, Parameter
from repro.optim import Adam
from repro.serve import (
    RepresentationStore,
    ScoreRequest,
    Scorer,
    StaleRepresentationError,
    StoreError,
    component_digests,
    exact_top_k,
)
from repro.tensor.trace import model_rng_sources

STAGES = ("user_g1", "user_g3", "user_g4", "items")


def _train_nmcdr(task, num_epochs=2, seed=0):
    model = NMCDR(
        task,
        NMCDRConfig(embedding_dim=16, max_matching_neighbors=32, head_threshold=5, seed=seed),
    )
    CDRTrainer(
        model,
        task,
        TrainerConfig(num_epochs=num_epochs, batch_size=256, num_eval_negatives=30, seed=seed),
    ).fit()
    return model


def _reference_model(model, task, rng_states):
    """A clone scoring through the evaluation cache under the given rng states."""
    reference = NMCDR(task, model.config)
    reference.load_state_dict(model.state_dict())
    for rng, state in zip(model_rng_sources(reference), rng_states):
        set_generator_state(rng, state)
    reference.prepare_for_evaluation()
    return reference


@pytest.fixture(scope="module")
def served(tiny_task):
    """(model, store, scorer, reference) built from one trained NMCDR."""
    model = _train_nmcdr(tiny_task)
    states = [generator_state(rng) for rng in model_rng_sources(model)]
    store = RepresentationStore.build(model, tiny_task, params_version=3)
    scorer = Scorer(model, store)
    reference = _reference_model(model, tiny_task, states)
    return model, store, scorer, reference


# ----------------------------------------------------------------------
# capability protocol
# ----------------------------------------------------------------------
class TestCapabilityProtocol:
    def test_nmcdr_declares_every_capability(self, tiny_task):
        caps = NMCDR(tiny_task, NMCDRConfig(embedding_dim=8)).capabilities()
        assert caps == ModelCapabilities(
            encode_match_split=True,
            sharding=True,
            matching_pools=True,
            subgraph_sampling=True,
        )

    def test_module_default_declares_nothing(self):
        assert Module().capabilities() == ModelCapabilities()

    @pytest.mark.parametrize(
        "name, sharding, subgraph",
        [("PLE", True, False), ("GA-DTCDR", True, True), ("BPR", False, False)],
    )
    def test_baselines_declare_from_their_mixins(self, tiny_task, name, sharding, subgraph):
        caps = build_model(name, tiny_task, embedding_dim=8, seed=0).capabilities()
        assert caps.encode_match_split is False
        assert caps.sharding is sharding
        assert caps.subgraph_sampling is subgraph

    def test_no_protocol_probes_left_in_core_or_serve(self):
        """The api_redesign contract: consumers branch on capabilities()."""
        import repro

        root = Path(repro.__file__).parent
        probed = (
            "encode_representations",
            "match_representations",
            "sample_step_pools",
            "configure_subgraph_sampling",
            "on_epoch_start",
            "score_pairs",
        )
        offenders = []
        for package in ("core", "serve"):
            for source_file in (root / package).rglob("*.py"):
                source = source_file.read_text()
                for method in probed:
                    for probe in (f'hasattr(model, "{method}"', f'getattr(model, "{method}"'):
                        if probe in source:
                            offenders.append(f"{source_file.name}: {probe}")
        assert offenders == []


# ----------------------------------------------------------------------
# exact top-K
# ----------------------------------------------------------------------
class TestExactTopK:
    def test_matches_stable_full_sort(self, rng):
        scores = rng.normal(size=500)
        scores[rng.integers(0, 500, size=60)] = 1.5  # force ties
        full = np.argsort(-scores, kind="stable")
        for k in (1, 7, 499, 500):
            assert np.array_equal(exact_top_k(scores, k), full[:k])

    def test_tie_break_matches_argmax(self):
        scores = np.array([0.2, 0.9, 0.9, 0.1])
        assert exact_top_k(scores, 1)[0] == np.argmax(scores)

    def test_degenerate_k(self):
        scores = np.array([3.0, 1.0])
        assert exact_top_k(scores, 0).size == 0
        assert np.array_equal(exact_top_k(scores, 10), np.array([0, 1]))


# ----------------------------------------------------------------------
# store-backed scoring exactness
# ----------------------------------------------------------------------
class TestScorerExactness:
    def test_top_k_bit_identical_to_full_rescoring(self, served):
        _model, store, scorer, reference = served
        requests = [
            ScoreRequest("a", 0, k=1),
            ScoreRequest("a", 5, k=10),
            ScoreRequest("b", 2, k=store.tables["b"].num_items),  # full catalogue
            ScoreRequest("b", 7, k=4, candidates=np.array([3, 11, 3, 0, 11])),
        ]
        responses = scorer.score_batch(requests)
        for request, response in zip(requests, responses):
            candidates = (
                request.candidates
                if request.candidates is not None
                else np.arange(store.tables[request.domain].num_items)
            )
            scores = reference.score(
                request.domain,
                np.full(candidates.shape[0], request.user, dtype=np.int64),
                candidates,
            )
            top = exact_top_k(scores, request.k)
            assert np.array_equal(response.items, candidates[top])
            assert response.scores.tolist() == scores[top].tolist()  # float64 exact
            assert response.generation == store.generation
            assert response.params_version == 3

    def test_delegation_path_matches_model_score(self, tiny_task):
        model = build_model("PLE", tiny_task, embedding_dim=8, seed=0)
        scorer = Scorer.from_model(model, tiny_task, micro_batch_size=7)
        assert scorer.store is None
        candidates = np.arange(tiny_task.domain("a").num_items)
        response = scorer.score(ScoreRequest("a", 1, k=5))
        scores = model.score("a", np.full(candidates.shape[0], 1), candidates)
        top = exact_top_k(scores, 5)
        assert np.array_equal(response.items, candidates[top])
        assert response.scores.tolist() == scores[top].tolist()
        assert response.cold_start is False

    def test_store_requires_split_capability(self, tiny_task):
        model = build_model("PLE", tiny_task, embedding_dim=8, seed=0)
        with pytest.raises(TypeError, match="encode_match_split"):
            RepresentationStore.build(model, tiny_task)
        with pytest.raises(ValueError, match="without a store"):
            Scorer(model, RepresentationStore.__new__(RepresentationStore))

    def test_micro_batching_is_invisible(self, served):
        _model, _store, scorer, _reference = served
        tiny = Scorer(scorer.model, scorer.store, micro_batch_size=3)
        request = ScoreRequest("a", 4, k=9)
        assert tiny.score(request).scores.tolist() == scorer.score(request).scores.tolist()


# ----------------------------------------------------------------------
# cold-start routing
# ----------------------------------------------------------------------
class TestColdStart:
    @pytest.fixture(scope="class")
    def cold_setup(self, tiny_dataset):
        """A task where one overlapping user has zero domain-b interactions."""
        domain_b = tiny_dataset.domain_b
        overlap_globals = np.intersect1d(
            tiny_dataset.domain_a.global_user_ids, domain_b.global_user_ids
        )
        cold_user = int(np.where(domain_b.global_user_ids == overlap_globals[0])[0][0])
        keep = domain_b.users != cold_user
        stripped = DomainData(
            name=domain_b.name,
            num_users=domain_b.num_users,
            num_items=domain_b.num_items,
            users=domain_b.users[keep],
            items=domain_b.items[keep],
            timestamps=domain_b.timestamps[keep],
            global_user_ids=domain_b.global_user_ids,
        )
        dataset = CDRDataset(
            name="tiny_cold", domain_a=tiny_dataset.domain_a, domain_b=stripped
        )
        task = build_task(dataset, head_threshold=5)
        model = _train_nmcdr(task, num_epochs=1)
        states = [generator_state(rng) for rng in model_rng_sources(model)]
        store = RepresentationStore.build(model, task, params_version=0)
        reference = _reference_model(model, task, states)
        return task, model, store, reference, cold_user

    def test_cold_user_served_from_matching_module(self, cold_setup):
        _task, model, store, reference, cold_user = cold_setup
        table = store.tables["b"]
        assert not table.warm[cold_user]
        assert table.warm.sum() > 0  # the rest of the roster stayed warm
        # The serving row IS the matching-module output, and the
        # complementing stage is the identity on the edge-less user.
        assert np.array_equal(table.user_row(cold_user), table.user_g3[cold_user])
        assert np.array_equal(table.user_g4[cold_user], table.user_g3[cold_user])

        scorer = Scorer(model, store)
        response = scorer.score(ScoreRequest("b", cold_user, k=5))
        assert response.cold_start is True

        candidates = np.arange(table.num_items)
        scores = reference.score(
            "b", np.full(candidates.shape[0], cold_user, dtype=np.int64), candidates
        )
        top = exact_top_k(scores, 5)
        assert np.array_equal(response.items, candidates[top])
        assert response.scores.tolist() == scores[top].tolist()

    def test_warm_user_not_flagged(self, cold_setup):
        _task, model, store, _reference, _cold_user = cold_setup
        warm_user = int(np.flatnonzero(store.tables["b"].warm)[0])
        response = Scorer(model, store).score(ScoreRequest("b", warm_user, k=3))
        assert response.cold_start is False


# ----------------------------------------------------------------------
# refresh invariants
# ----------------------------------------------------------------------
class TestRefresh:
    @pytest.fixture()
    def fresh(self, tiny_task, served):
        """A private model+store copy (refresh tests mutate parameters)."""
        source, _store, _scorer, _reference = served
        model = NMCDR(tiny_task, source.config)
        model.load_state_dict(source.state_dict())
        store = RepresentationStore.build(model, tiny_task, params_version=0)
        return model, store

    @staticmethod
    def _assert_tables_equal(store, other):
        for key in ("a", "b"):
            for stage in STAGES:
                assert np.array_equal(
                    getattr(store.tables[key], stage), getattr(other.tables[key], stage)
                ), f"{key}/{stage} diverged"

    def test_refresh_after_optimizer_step_matches_full_rebuild(self, tiny_task, fresh):
        model, store = fresh
        snapshot = store.meta["rng_sources"]
        CDRTrainer(
            model,
            tiny_task,
            TrainerConfig(num_epochs=1, batch_size=256, num_eval_negatives=30, seed=9),
        ).fit()
        stats = store.refresh(model, params_version=1)
        assert stats["recomputed_match"] is True
        assert set(stats["recomputed_encode"]) == {"a", "b"}
        rebuilt = RepresentationStore.build(
            model, tiny_task, params_version=1, rng_states=snapshot
        )
        self._assert_tables_equal(store, rebuilt)
        assert store.generation == 2 and store.params_version == 1

    def test_single_component_refreshes_are_incremental_and_exact(self, tiny_task, fresh):
        model, store = fresh
        snapshot = store.meta["rng_sources"]

        model.domain_a_params.encoder.parameters()[0].data += 0.01
        stats = store.refresh(model)
        assert stats["recomputed_encode"] == ["a"]  # domain b's encode reused
        self._assert_tables_equal(
            store,
            RepresentationStore.build(model, tiny_task, rng_states=snapshot),
        )

        model.domain_b_params.inter_layers[0].parameters()[0].data += 0.01
        stats = store.refresh(model)
        assert stats["recomputed_encode"] == [] and stats["recomputed_match"] is True
        self._assert_tables_equal(
            store,
            RepresentationStore.build(model, tiny_task, rng_states=snapshot),
        )

    def test_head_only_update_skips_the_forward(self, tiny_task, fresh):
        model, store = fresh
        before = {
            key: {stage: getattr(store.tables[key], stage).copy() for stage in STAGES}
            for key in ("a", "b")
        }
        model.domain_a_params.prediction.parameters()[0].data += 0.05
        stats = store.refresh(model, params_version=1)
        assert stats["changed"] == ["head_a"]
        assert stats["recomputed_match"] is False and stats["recomputed_encode"] == []
        for key in ("a", "b"):
            for stage in STAGES:
                assert np.array_equal(getattr(store.tables[key], stage), before[key][stage])
        # ... and scoring through the store still matches full rescoring.
        states = store.meta["rng_sources"]
        reference = _reference_model(model, tiny_task, states)
        response = Scorer(model, store).score(ScoreRequest("a", 1, k=6))
        candidates = np.arange(store.tables["a"].num_items)
        scores = reference.score("a", np.full(candidates.shape[0], 1), candidates)
        top = exact_top_k(scores, 6)
        assert response.scores.tolist() == scores[top].tolist()

    def test_noop_refresh_changes_nothing_but_the_generation(self, fresh):
        model, store = fresh
        stats = store.refresh(model)
        assert stats["changed"] == [] and stats["recomputed_match"] is False
        assert store.generation == 2

    def test_refresh_leaves_live_rng_untouched(self, fresh):
        model, store = fresh
        model.domain_a_params.encoder.parameters()[0].data += 0.01
        before = [generator_state(rng) for rng in model_rng_sources(model)]
        store.refresh(model)
        after = [generator_state(rng) for rng in model_rng_sources(model)]
        assert before == after

    def test_component_digests_partition_every_parameter(self, fresh):
        model, _store = fresh
        digests = component_digests(model)
        assert set(digests) == {"encode_a", "encode_b", "match", "head_a", "head_b"}


# ----------------------------------------------------------------------
# staleness + persistence
# ----------------------------------------------------------------------
class TestStoreLifecycle:
    def test_stale_reads_raise_beyond_the_bound(self, tiny_task, served):
        model, _store, _scorer, _reference = served
        store = RepresentationStore.build(
            model, tiny_task, params_version=10, max_staleness=2
        )
        store.domain("a", current_version=12)  # at the bound: fine
        scorer = Scorer(model, store)
        scorer.score_batch([ScoreRequest("a", 0, k=1)], current_version=12)
        with pytest.raises(StaleRepresentationError, match="staleness bound"):
            store.domain("a", current_version=13)
        with pytest.raises(StaleRepresentationError):
            scorer.score_batch([ScoreRequest("a", 0, k=1)], current_version=13)

    def test_save_load_round_trip(self, served, tmp_path):
        _model, store, _scorer, _reference = served
        store.save(tmp_path)
        loaded = RepresentationStore.load(tmp_path)
        assert loaded.generation == store.generation
        assert loaded.params_version == store.params_version
        for key in ("a", "b"):
            for stage in (*STAGES, "warm"):
                assert np.array_equal(
                    getattr(loaded.tables[key], stage), getattr(store.tables[key], stage)
                )

    def test_corrupted_archive_is_rejected(self, served, tmp_path):
        _model, store, _scorer, _reference = served
        path = store.save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError):
            RepresentationStore.load(tmp_path)

    def test_missing_store_is_a_clear_error(self, tmp_path):
        with pytest.raises(StoreError, match="not found"):
            RepresentationStore.load(tmp_path)


# ----------------------------------------------------------------------
# params-only checkpoint loading
# ----------------------------------------------------------------------
class _ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        self.bias = Parameter(np.ones(3))


def _write_toy_checkpoint(directory):
    model = _ToyModel()
    optimizer = Adam(model.parameters(), lr=1e-3)
    return save_checkpoint(
        directory,
        model=model,
        optimizer=optimizer,
        history=TrainingHistory(),
        position=ResumeState(next_epoch=1, steps_into_epoch=0, total_steps=4),
        loader_rng_states={},
        model_rng_states=[],
        config_fingerprint={},
    )


def _strip_adam_payload(path):
    """Deployment-style strip: drop the moment arrays, recompute the digest."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
        arrays = {
            name: archive[name]
            for name in archive.files
            if name != "meta" and not name.startswith(("adam_m::", "adam_v::"))
        }
    meta["digest"] = _payload_digest(arrays)
    payload = dict(arrays)
    payload["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(open(path, "wb"), **payload)


class TestParamsOnlyLoading:
    def test_full_load_still_returns_moments(self, tmp_path):
        path = _write_toy_checkpoint(tmp_path)
        loaded = load_checkpoint(path)
        assert len(loaded.adam_m) == 2 and len(loaded.adam_v) == 2

    def test_params_only_skips_moments(self, tmp_path):
        path = _write_toy_checkpoint(tmp_path)
        loaded = load_checkpoint(path, params_only=True)
        assert loaded.adam_m == [] and loaded.adam_v == []
        fresh = _ToyModel()
        fresh.weight.data[:] = 0.0
        fresh.load_state_dict(loaded.parameters)
        assert np.array_equal(fresh.weight.data, np.arange(6, dtype=np.float64).reshape(2, 3))

    def test_stripped_archive_loads_params_only_and_rejects_full(self, tmp_path):
        path = _write_toy_checkpoint(tmp_path)
        _strip_adam_payload(path)
        loaded = load_checkpoint(path, params_only=True)
        assert set(loaded.parameters) == {"weight", "bias"}
        with pytest.raises(CheckpointError, match="incomplete"):
            load_checkpoint(path)

    def test_params_only_still_verifies_the_digest(self, tmp_path):
        path = _write_toy_checkpoint(tmp_path)
        # A well-formed archive whose payload no longer matches its recorded
        # digest.  (Flipping the file's middle byte instead tests whatever
        # lands there: a zip CRC, or a local-header field no reader consults.)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["param::weight"] = arrays["param::weight"] + 1.0
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path, params_only=True)


# ----------------------------------------------------------------------
# CLI smoke: train a tiny checkpoint, serve a request file, verify exact
# ----------------------------------------------------------------------
class TestServeCLI:
    def test_one_shot_request_file_is_exact(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        run_dir = tmp_path / "run"
        rc = cli_main(
            [
                "train",
                "--scenario", "cloth_sport",
                "--scale", "0.3",
                "--epochs", "1",
                "--embedding-dim", "16",
                "--negatives", "10",
                "--seed", "0",
                "--checkpoint-dir", str(run_dir),
                "--checkpoint-every", "1",
            ]
        )
        assert rc == 0
        capsys.readouterr()

        requests = [
            {"domain": "a", "user": 0, "k": 5},
            {"domain": "b", "user": 3},
            {"domain": "a", "user": 2, "k": 3, "candidates": [9, 1, 9, 4]},
        ]
        request_file = tmp_path / "requests.jsonl"
        request_file.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        store_dir = tmp_path / "store"
        # --verify recomputes every answer against full-model rescoring and
        # raises on any divergence: the exactness assertion of this smoke.
        rc = cli_main(
            [
                "serve",
                "--checkpoint-dir", str(run_dir),
                "--requests", str(request_file),
                "--topk", "4",
                "--store-dir", str(store_dir),
                "--verify",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert len(responses) == len(requests)
        assert responses[0]["user"] == 0 and len(responses[0]["items"]) == 5
        assert len(responses[1]["items"]) == 4  # --topk default applied
        assert len(responses[2]["items"]) == 3
        for response in responses:
            assert set(response) >= {
                "domain", "user", "items", "scores", "cold_start",
                "generation", "params_version",
            }
            assert response["scores"] == sorted(response["scores"], reverse=True)
        # the store was persisted and round-trips
        assert RepresentationStore.load(store_dir).generation == 1
