"""The ``repro serve`` session: checkpoint → store → JSONL answers.

A :class:`ServeSession` is the inference-tier counterpart of the training
CLI's checkpoint workflow: it reads the ``run.json`` provenance manifest a
``repro train --checkpoint-dir`` run wrote, rebuilds the identical dataset
/task/model through :func:`build_run_components` (the same resolver the
train/resume commands use), loads the newest checkpoint **params-only**
(no optimiser moments, digest still verified), restores the model's rng
streams from the checkpoint meta, builds the
:class:`~repro.serve.store.RepresentationStore` and answers top-K requests
through the :class:`~repro.serve.scorer.Scorer`.

Requests and responses are line-delimited JSON::

    {"domain": "a", "user": 17, "k": 5}
    {"domain": "b", "user": 3, "k": 10, "candidates": [1, 4, 9]}

Each response echoes the query plus the slate and serving provenance
(``cold_start``, store ``generation``, ``params_version``).  The optional
verify mode recomputes every answer against full-model rescoring (the
evaluation cache path) and fails loudly on any divergence — the CI smoke
test runs the one-shot ``--requests`` mode this way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

import numpy as np

from ..core.checkpoint import (
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    set_generator_state,
)
from ..tensor import engine as tensor_engine
from ..tensor.trace import model_rng_sources
from .health import ErrorResponse
from .scorer import ScoreRequest, Scorer, exact_top_k

__all__ = ["ServeSession", "build_run_components", "load_run_manifest"]


def load_run_manifest(directory: Union[str, Path]) -> Dict:
    """The ``run.json`` manifest of a checkpointed training run."""
    run_file = Path(directory) / "run.json"
    if not run_file.exists():
        raise FileNotFoundError(
            f"no run.json in {directory}; start the run with "
            "`repro train --checkpoint-dir` to make it servable"
        )
    return json.loads(run_file.read_text())


def build_run_components(run: Dict, *, task=None):
    """(model, task, settings) described by a ``run.json`` manifest.

    The single config-resolution path shared by ``repro train``, ``repro
    resume`` and ``repro serve``: all three rebuild the identical dataset,
    task and model from the same manifest dict, so a served checkpoint is
    guaranteed to load into the architecture that produced it (the
    checkpoint's own config fingerprint and payload digest double-check).

    ``task`` short-circuits the dataset rebuild when the caller already
    holds the run's task — the hot reloader builds shadow models this way,
    so a reload costs one model construction, not a dataset preparation.
    """
    # Imported lazily: this module is reachable from ``repro.experiments``
    # (the online A/B harness scores through the Scorer), so importing the
    # experiments package at module scope would be circular.
    from ..baselines import build_model
    from ..core import build_task
    from ..experiments import ExperimentSettings
    from ..experiments.runner import prepare_dataset

    settings = ExperimentSettings(**run["settings"])
    if task is None:
        dataset = prepare_dataset(settings)
        task = build_task(dataset, head_threshold=settings.head_threshold)
    model = build_model(
        run["model"], task, embedding_dim=settings.embedding_dim, seed=settings.seed
    )
    return model, task, settings


class ServeSession:
    """One loaded checkpoint serving top-K requests; see module docs."""

    def __init__(
        self,
        model,
        task,
        scorer: Scorer,
        *,
        checkpoint_meta: Dict,
        run: Dict,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.model = model
        self.task = task
        self.scorer = scorer
        self.checkpoint_meta = checkpoint_meta
        self.run = run
        self.checkpoint_path = Path(checkpoint_path) if checkpoint_path else None
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.requests_served = 0
        self._reference_ready = False

    @property
    def health(self):
        """The shared :class:`~repro.serve.health.ServeHealth` ledger."""
        return self.scorer.health

    @classmethod
    def from_checkpoint_dir(
        cls,
        directory: Union[str, Path],
        *,
        checkpoint: Optional[Union[str, Path]] = None,
        max_staleness: int = 0,
        micro_batch_size: int = 8192,
        use_best: bool = True,
        queue_limit: Optional[int] = None,
        default_deadline_ms: Optional[float] = None,
        hard_staleness: Optional[int] = None,
    ) -> "ServeSession":
        """Stand up a session from a ``repro train --checkpoint-dir`` directory.

        ``use_best`` serves the early-stopping best state when the
        checkpoint recorded one, falling back to the final parameters.
        ``queue_limit`` / ``default_deadline_ms`` / ``hard_staleness``
        configure the scorer's admission queue, request deadlines and
        degradation ladder (see :mod:`repro.serve.scorer`).
        """
        directory = Path(directory)
        run = load_run_manifest(directory)
        path = Path(checkpoint) if checkpoint is not None else latest_checkpoint(directory)
        if path is None:
            raise CheckpointError(f"no checkpoint found in {directory}")
        loaded = load_checkpoint(path, params_only=True)
        live_dtype = tensor_engine.get_dtype().str
        if loaded.meta["engine_dtype"] != live_dtype:
            raise CheckpointError(
                f"checkpoint {path} was written under engine dtype "
                f"{loaded.meta['engine_dtype']} but the serving engine runs "
                f"{live_dtype}"
            )
        model, task, _settings = build_run_components(run)
        parameters = (
            loaded.best_state if (use_best and loaded.best_state) else loaded.parameters
        )
        model.load_state_dict(parameters)
        model.invalidate_cache()
        sources = model_rng_sources(model)
        saved_sources = loaded.meta["rng"]["model_sources"]
        if len(sources) != len(saved_sources):
            raise CheckpointError(
                f"checkpoint {path} (digest "
                f"{str(loaded.meta.get('digest'))[:12]}…) recorded "
                f"{len(saved_sources)} model rng streams but the rebuilt "
                f"model exposes {len(sources)}"
            )
        for rng, state in zip(sources, saved_sources):
            set_generator_state(rng, state)
        scorer = Scorer.from_model(
            model,
            task,
            params_version=int(loaded.meta["optimizer"]["step_count"]),
            max_staleness=max_staleness,
            micro_batch_size=micro_batch_size,
            queue_limit=queue_limit,
            default_deadline_ms=default_deadline_ms,
            hard_staleness=hard_staleness,
        )
        return cls(
            model,
            task,
            scorer,
            checkpoint_meta=loaded.meta,
            run=run,
            checkpoint_path=path,
            checkpoint_dir=directory,
        )

    # ------------------------------------------------------------------
    # hot reload commit point
    # ------------------------------------------------------------------
    def publish(
        self,
        scorer: Scorer,
        *,
        checkpoint_meta: Optional[Dict] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ) -> None:
        """Swap in a validated scorer (the hot reloader's commit point).

        The request path reads ``self.scorer``; that reference is assigned
        last, so a concurrent reader observes either the complete old state
        or the complete new one — never a torn mixture.
        """
        self.model = scorer.model
        if checkpoint_meta is not None:
            self.checkpoint_meta = checkpoint_meta
        if checkpoint_path is not None:
            self.checkpoint_path = Path(checkpoint_path)
        self._reference_ready = False
        self.scorer = scorer

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def answer(self, payload: Dict, *, default_k: int = 10) -> Dict:
        """Answer one JSON request dict with a JSON response dict."""
        request_payload = dict(payload)
        request_payload.setdefault("k", default_k)
        response = self.scorer.score(ScoreRequest.from_json(request_payload))
        self.requests_served += 1
        return response.to_json()

    def answer_robust(self, payload, *, default_k: int = 10) -> Dict:
        """Answer one request dict, mapping every failure to a typed error.

        The serving-loop counterpart of :meth:`answer`: a malformed payload,
        a shed/expired request or a scorer failure comes back as an
        ``{"error": ..., "message": ...}`` response dict — this method never
        raises, so one bad request can never kill the loop.
        """
        try:
            request_payload = dict(payload)
            request_payload.setdefault("k", default_k)
            request = ScoreRequest.from_json(request_payload)
        except Exception as error:
            self.health.count_error("bad_request")
            return ErrorResponse(
                error="bad_request",
                message=f"malformed request payload {payload!r}: {error}",
            ).to_json()
        result = self.scorer.score_batch([request], collect_errors=True)[0]
        self.requests_served += 1
        return result.to_json()

    def verify(self, payload: Dict, response: Dict, *, default_k: int = 10) -> bool:
        """Check one response against full-model rescoring, bit for bit.

        The reference path is the evaluation interface every model already
        has — ``score(domain, users, items)`` over a full forward's cache —
        scored over the same candidate set and reduced by the same exact
        top-K, so any store/refresh defect shows up as a hard mismatch.
        """
        request_payload = dict(payload)
        request_payload.setdefault("k", default_k)
        request = ScoreRequest.from_json(request_payload)
        candidates = (
            request.candidates
            if request.candidates is not None
            else np.arange(self.scorer._domain_sizes(request.domain)[1], dtype=np.int64)
        )
        self._prepare_reference()
        scores = self.model.score(
            request.domain,
            np.full(candidates.shape[0], request.user, dtype=np.int64),
            candidates,
        )
        top = exact_top_k(scores, request.k)
        expected_items = [int(item) for item in candidates[top]]
        expected_scores = [float(score) for score in scores[top]]
        return (
            expected_items == list(response["items"])
            and expected_scores == list(response["scores"])
        )

    def _prepare_reference(self) -> None:
        """One full forward under the store's rng snapshot (first verify only)."""
        if self._reference_ready:
            return
        store = self.scorer.store
        if store is not None:
            sources = model_rng_sources(self.model)
            for rng, state in zip(sources, store.meta["rng_sources"]):
                set_generator_state(rng, state)
            self.model.prepare_for_evaluation()
        self._reference_ready = True

    def serve_lines(
        self,
        lines: Iterable[str],
        *,
        default_k: int = 10,
        verify: bool = False,
        robust: bool = False,
        reloader=None,
    ) -> Iterator[str]:
        """Answer an iterable of JSONL request lines, yielding JSONL responses.

        ``robust`` is the long-lived-loop mode: a malformed line or a
        per-request failure yields a typed error response and the loop keeps
        serving (the default raises — the strict one-shot contract).
        ``reloader`` (a :class:`~repro.serve.reload.HotReloader`) is polled
        between requests, so newer checkpoints hot-swap mid-stream.
        """
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if reloader is not None:
                reloader.check()
            if robust:
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request line is not a JSON object")
                except ValueError as error:
                    self.health.count_error("malformed")
                    yield json.dumps(
                        ErrorResponse(
                            error="malformed",
                            message=f"unparseable request line: {error}",
                        ).to_json()
                    )
                    continue
                response = self.answer_robust(payload, default_k=default_k)
            else:
                payload = json.loads(line)
                response = self.answer(payload, default_k=default_k)
            if (
                verify
                and "error" not in response
                and not self.verify(payload, response, default_k=default_k)
            ):
                raise RuntimeError(
                    "serving verification failed: store-backed response for "
                    f"{payload!r} diverged from full-model rescoring"
                )
            yield json.dumps(response)

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def record_profile(self, profiler) -> None:
        """Publish the health ledger as the profiler's ``serve`` section."""
        profiler.record_section("serve", self.health.snapshot())

    def summary(self) -> str:
        store = self.scorer.store
        parts = [
            f"model={self.run['model']}",
            f"scenario={self.run['settings'].get('scenario')}",
            f"requests={self.requests_served}",
        ]
        if store is not None:
            parts.append(f"generation={store.generation}")
            parts.append(f"params_version={store.params_version}")
        health = self.health
        if health.reload_attempts:
            parts.append(
                f"reloads={health.reload_swapped}/{health.reload_attempts}"
            )
        if health.request_errors:
            parts.append(f"request_errors={health.request_errors}")
        return "served " + " ".join(parts)
