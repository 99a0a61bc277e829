"""Resilient-serving tests: typed errors, deadlines, ladder, hot reload.

The request-path and reload guarantees gated here (tier 1 — the
fault-injected drills live in ``tests/test_serve_faults.py``):

* a malformed JSONL line or a failing request yields a *typed* error
  response and the serving loop keeps answering — one bad request can
  never kill the process;
* the bounded admission queue sheds excess requests with a typed
  ``overload`` response and recovers on the next within-limit batch;
* expired deadlines answer with a typed ``deadline_exceeded`` response,
  and deadline-path scoring is bit-identical to the grouped fast path;
* the degradation ladder resolves fresh → stale (flagged) → cold path
  (every user served from the matching-module output) → typed
  unavailable, with every rung counted on ``ServeHealth``;
* a hot reload swaps to answers bit-identical to a cold rebuild of the
  new checkpoint (float64), bumps the serving generation by one, and a
  corrupt candidate rolls back with the old generation still serving;
* store/checkpoint integrity errors carry the offending path, digest and
  generation in their message.
"""

from __future__ import annotations

import io
import json
import shutil

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointError,
    generator_state,
    list_checkpoints,
    load_checkpoint,
)
from repro.serve import (
    CheckpointWatcher,
    DeadlineExceeded,
    ErrorResponse,
    HotReloader,
    RepresentationStore,
    ScoreRequest,
    Scorer,
    ServeHealth,
    ServeOverloadError,
    ServeSession,
    ServeUnavailableError,
    StaleRepresentationError,
    StoreError,
)
from repro.tensor.trace import model_rng_sources


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A trained checkpoint directory with two checkpoints (epochs 1 and 2)."""
    from repro.cli import main as cli_main

    directory = tmp_path_factory.mktemp("serve-resilience") / "run"
    rc = cli_main(
        [
            "train",
            "--scenario", "cloth_sport",
            "--scale", "0.3",
            "--epochs", "2",
            "--embedding-dim", "16",
            "--negatives", "10",
            "--seed", "0",
            "--checkpoint-dir", str(directory),
            "--checkpoint-every", "1",
        ]
    )
    assert rc == 0
    assert len(list_checkpoints(directory)) == 2
    return directory


@pytest.fixture()
def session(run_dir):
    return ServeSession.from_checkpoint_dir(run_dir, use_best=False)


def _first_checkpoint_session(run_dir, **kwargs):
    first = list_checkpoints(run_dir)[0]
    return ServeSession.from_checkpoint_dir(
        run_dir, checkpoint=first, use_best=False, **kwargs
    )


# ----------------------------------------------------------------------
# typed errors keep the loop alive
# ----------------------------------------------------------------------
class TestRobustLoop:
    def test_malformed_line_yields_typed_error_and_loop_survives(self, session):
        lines = [
            "this is not json",
            json.dumps({"domain": "a", "user": 0, "k": 3}),
            json.dumps([1, 2, 3]),  # valid JSON, not an object
            json.dumps({"domain": "a", "user": 1, "k": 3}),
        ]
        responses = [json.loads(out) for out in session.serve_lines(lines, robust=True)]
        assert [("error" in r) for r in responses] == [True, False, True, False]
        assert responses[0]["error"] == "malformed"
        assert responses[2]["error"] == "malformed"
        assert len(responses[1]["items"]) == 3
        assert session.health.error_codes["malformed"] == 2

    def test_bad_request_yields_typed_error_and_loop_survives(self, session):
        lines = [
            json.dumps({"domain": "zz", "user": 0}),  # unknown domain
            json.dumps({"user": 0}),  # missing domain key
            json.dumps({"domain": "a", "user": -1}),  # out-of-range user
            json.dumps({"domain": "b", "user": 2, "k": 4}),
        ]
        responses = [json.loads(out) for out in session.serve_lines(lines, robust=True)]
        assert responses[0]["error"] == "bad_request"
        assert responses[1]["error"] == "bad_request"
        assert responses[2]["error"] == "bad_request"
        assert len(responses[3]["items"]) == 4

    def test_strict_mode_still_raises(self, session):
        with pytest.raises(json.JSONDecodeError):
            list(session.serve_lines(["not json"]))

    def test_cli_stdin_loop_survives_malformed_lines(self, run_dir, monkeypatch, capsys):
        """The ``repro serve`` stdin regression: bad lines never kill the loop."""
        import sys

        from repro.cli import main as cli_main

        stdin_lines = "\n".join(
            [
                "garbage {{{",
                json.dumps({"domain": "a", "user": 0, "k": 2}),
                json.dumps({"domain": "nope", "user": 0}),
                json.dumps({"domain": "b", "user": 1}),
            ]
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_lines + "\n"))
        rc = cli_main(
            ["serve", "--checkpoint-dir", str(run_dir), "--topk", "3", "--health"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
        assert len(responses) == 4
        assert responses[0]["error"] == "malformed"
        assert len(responses[1]["items"]) == 2
        assert responses[2]["error"] == "bad_request"
        assert len(responses[3]["items"]) == 3
        # --health printed a JSON snapshot with the failure ledger
        health_line = captured.err.strip().splitlines()[-1]
        snapshot = json.loads(health_line)
        assert snapshot["requests"]["ok"] == 2
        assert snapshot["requests"]["error_codes"]["malformed"] == 1
        assert snapshot["requests"]["error_codes"]["bad_request"] == 1


# ----------------------------------------------------------------------
# admission control + deadlines
# ----------------------------------------------------------------------
class TestAdmissionAndDeadlines:
    def test_overload_sheds_typed_and_recovers(self, session):
        scorer = Scorer(
            session.model, session.scorer.store, queue_limit=2, health=ServeHealth()
        )
        batch = [ScoreRequest("a", user, k=2) for user in range(5)]
        responses = scorer.score_batch(batch, collect_errors=True)
        kinds = [type(r).__name__ for r in responses]
        assert kinds == ["ScoreResponse"] * 2 + ["ErrorResponse"] * 3
        assert all(r.error == "overload" for r in responses[2:])
        assert scorer.health.shed == 3
        # recovery: the next within-limit batch is served in full
        again = scorer.score_batch(batch[:2], collect_errors=True)
        assert all(type(r).__name__ == "ScoreResponse" for r in again)

    def test_overload_raises_without_collect(self, session):
        scorer = Scorer(session.model, session.scorer.store, queue_limit=1)
        with pytest.raises(ServeOverloadError, match="queue full"):
            scorer.score_batch([ScoreRequest("a", 0), ScoreRequest("a", 1)])

    def test_expired_deadline_is_typed(self, session):
        scorer = Scorer(session.model, session.scorer.store, health=ServeHealth())
        request = ScoreRequest("a", 0, k=3, deadline_ms=0.0)
        response = scorer.score_batch([request], collect_errors=True)[0]
        assert isinstance(response, ErrorResponse)
        assert response.error == "deadline_exceeded"
        assert scorer.health.deadline_exceeded == 1
        with pytest.raises(DeadlineExceeded):
            scorer.score(ScoreRequest("a", 0, k=3, deadline_ms=0.0))

    def test_deadline_path_is_bit_identical_to_grouped(self, session):
        store = session.scorer.store
        relaxed = Scorer(session.model, store, default_deadline_ms=60_000.0)
        grouped = Scorer(session.model, store)
        requests = [
            ScoreRequest("a", 0, k=4),
            ScoreRequest("b", 3, k=5),
            ScoreRequest("a", 2, k=3, candidates=np.array([7, 1, 7, 0])),
        ]
        fast = grouped.score_batch(requests)
        slow = relaxed.score_batch(
            [
                ScoreRequest(r.domain, r.user, k=r.k, candidates=r.candidates)
                for r in requests
            ]
        )
        for lhs, rhs in zip(fast, slow):
            assert np.array_equal(lhs.items, rhs.items)
            assert lhs.scores.tolist() == rhs.scores.tolist()  # float64 exact


# ----------------------------------------------------------------------
# the degradation ladder
# ----------------------------------------------------------------------
class TestDegradationLadder:
    @pytest.fixture()
    def laddered(self, session):
        """A scorer over a store pinned at params_version 10, max_staleness 2."""
        store = RepresentationStore.build(
            session.model, session.task, params_version=10, max_staleness=2
        )
        return Scorer(session.model, store, hard_staleness=5, health=ServeHealth())

    def test_fresh_rung(self, laddered):
        response = laddered.score(ScoreRequest("a", 0, k=2), current_version=10)
        assert response.degraded is None
        assert laddered.health.served_fresh == 1

    def test_stale_rung_flags_degraded(self, laddered):
        response = laddered.score(ScoreRequest("a", 0, k=2), current_version=12)
        assert response.degraded == "stale"
        assert laddered.health.served_stale == 1

    def test_cold_path_rung_serves_matching_module_rows(self, session, laddered):
        response = laddered.score(ScoreRequest("a", 0, k=4), current_version=15)
        assert response.degraded == "cold_path"
        assert laddered.health.served_cold_path == 1
        # Every user — warm ones included — is served from user_g3.
        table = laddered.store.tables["a"]
        candidates = np.arange(table.num_items, dtype=np.int64)
        scores = session.model.score_pairs(
            "a",
            np.repeat(table.user_g3[0][None, :], candidates.shape[0], axis=0),
            table.items[candidates],
        )
        top = np.argsort(-scores, kind="stable")[:4]
        assert response.scores.tolist() == scores[top].tolist()

    def test_past_the_ladder_is_typed_unavailable(self, laddered):
        with pytest.raises(ServeUnavailableError, match="hard staleness"):
            laddered.score(ScoreRequest("a", 0, k=2), current_version=16)
        collected = laddered.score_batch(
            [ScoreRequest("a", 0, k=2)], current_version=16, collect_errors=True
        )
        assert collected[0].error == "unavailable"
        assert laddered.health.unavailable == 2

    def test_without_hard_staleness_the_old_contract_holds(self, session):
        store = RepresentationStore.build(
            session.model, session.task, params_version=10, max_staleness=2
        )
        scorer = Scorer(session.model, store)
        with pytest.raises(StaleRepresentationError) as excinfo:
            scorer.score(ScoreRequest("a", 0, k=2), current_version=13)
        # satellite: the error text carries the generation and versions
        message = str(excinfo.value)
        assert "generation 1" in message and "version 10" in message


# ----------------------------------------------------------------------
# hot reload: validate-then-swap
# ----------------------------------------------------------------------
REQUESTS = [
    {"domain": "a", "user": 0, "k": 5},
    {"domain": "b", "user": 3, "k": 4},
    {"domain": "a", "user": 2, "k": 3, "candidates": [9, 1, 9, 4]},
]


def _answers(session):
    return [session.answer(dict(payload)) for payload in REQUESTS]


class TestHotReload:
    def test_swap_is_bit_identical_to_cold_rebuild(self, run_dir):
        first, second = list_checkpoints(run_dir)
        hot = _first_checkpoint_session(run_dir)
        assert hot.checkpoint_path == first
        old_generation = hot.scorer.store.generation

        result = HotReloader(hot, use_best=False).reload(second)
        assert result.swapped
        assert result["generation"] == old_generation + 1
        assert hot.checkpoint_path == second
        assert hot.health.reload_swapped == 1
        assert hot.health.last_swap_generation == old_generation + 1

        cold = ServeSession.from_checkpoint_dir(
            run_dir, checkpoint=second, use_best=False
        )
        for hot_response, cold_response in zip(_answers(hot), _answers(cold)):
            assert hot_response["items"] == cold_response["items"]
            assert hot_response["scores"] == cold_response["scores"]  # float64
            assert hot_response["params_version"] == cold_response["params_version"]
        # rng continuity: the swapped session sits in the same rng state a
        # cold session would, so refresh/verify behave identically later.
        assert [generator_state(rng) for rng in model_rng_sources(hot.model)] == [
            generator_state(rng) for rng in model_rng_sources(cold.model)
        ]
        # ... and the verify reference path agrees with the hot answers.
        payload = dict(REQUESTS[0])
        assert hot.verify(payload, hot.answer(payload))

    def test_corrupt_candidate_rolls_back(self, run_dir, tmp_path):
        hot = _first_checkpoint_session(run_dir)
        before = _answers(hot)
        old_generation = hot.scorer.store.generation

        second = list_checkpoints(run_dir)[1]
        broken = tmp_path / second.name
        shutil.copy(second, broken)
        blob = bytearray(broken.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        broken.write_bytes(bytes(blob))

        result = HotReloader(hot, use_best=False).reload(broken)
        assert not result.swapped
        assert result["reason"] == "corrupt"
        assert str(broken) in result["message"]
        assert hot.health.reload_rejected == 1
        assert hot.health.reload_rejected_reasons == {"corrupt": 1}
        # the old generation is still serving, bit for bit
        assert hot.scorer.store.generation == old_generation
        assert _answers(hot) == before

    def test_config_mismatch_is_rejected(self, run_dir, tmp_path):
        hot = _first_checkpoint_session(run_dir)
        second = list_checkpoints(run_dir)[1]
        drifted = tmp_path / second.name
        shutil.copy(second, drifted)
        with np.load(drifted) as archive:
            meta = json.loads(bytes(archive["meta"].tobytes()).decode("utf-8"))
            arrays = {n: archive[n] for n in archive.files if n != "meta"}
        meta["config"]["batch_size"] = 9999
        payload = dict(arrays)
        payload["meta"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        np.savez(open(drifted, "wb"), **payload)

        result = HotReloader(hot, use_best=False).reload(drifted)
        assert not result.swapped
        assert result["reason"] == "config"
        assert "batch_size" in result["message"]

    def test_watcher_offers_each_candidate_once(self, run_dir):
        first, second = list_checkpoints(run_dir)
        watcher = CheckpointWatcher(run_dir, current=first)
        assert watcher.poll() == second
        assert watcher.poll() is None  # not re-offered
        assert CheckpointWatcher(run_dir, current=second).poll() is None

    def test_serve_lines_polls_the_reloader(self, run_dir):
        hot = _first_checkpoint_session(run_dir)
        reloader = HotReloader(hot, use_best=False)
        lines = [json.dumps(dict(payload)) for payload in REQUESTS]
        responses = [json.loads(out) for out in hot.serve_lines(lines, robust=True)]
        # the newer checkpoint was discovered before the first request
        assert hot.health.reload_swapped == 0
        responses = [
            json.loads(out)
            for out in hot.serve_lines(lines, robust=True, reloader=reloader)
        ]
        assert hot.health.reload_swapped == 1
        cold = ServeSession.from_checkpoint_dir(
            run_dir, checkpoint=list_checkpoints(run_dir)[1], use_best=False
        )
        for response, cold_response in zip(responses, _answers(cold)):
            assert response["items"] == cold_response["items"]
            assert response["scores"] == cold_response["scores"]


# ----------------------------------------------------------------------
# error-text audit (satellite): path / digest / generation in messages
# ----------------------------------------------------------------------
class TestErrorText:
    def test_checkpoint_digest_mismatch_names_path_and_digests(self, run_dir, tmp_path):
        source = list_checkpoints(run_dir)[0]
        broken = tmp_path / source.name
        shutil.copy(source, broken)
        blob = bytearray(broken.read_bytes())
        blob[-200] ^= 0xFF
        broken.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(broken, params_only=True)
        message = str(excinfo.value)
        assert broken.name in message

    def test_store_digest_mismatch_names_generation_and_digests(self, session, tmp_path):
        path = session.scorer.store.save(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError) as excinfo:
            RepresentationStore.load(tmp_path)
        message = str(excinfo.value)
        assert str(path) in message

    def test_health_snapshot_shape(self):
        health = ServeHealth()
        health.count_response("fresh")
        health.count_error("overload")
        health.count_reload("rejected", reason="canary")
        snapshot = health.snapshot()
        assert snapshot["requests"]["total"] == 2
        assert snapshot["requests"]["shed"] == 1
        assert snapshot["reload"]["rejected_reasons"] == {"canary": 1}
