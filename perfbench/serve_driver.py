"""Serving-side helper processes of the benchmark (run by ``perfbench/run.py``).

``serve``  — the traced twin of ``repro serve``: the same
``ServeSession.from_checkpoint_dir`` → ``ServeSession.serve_lines`` loop
(with a ``HotReloader`` under ``--watch``), reading JSONL requests from
stdin and answering on stdout, with spans around the public calls of the
serving layers.  One ``request`` root span runs from reading a line to
writing its answer; any reload the loop runs happens inside it.  At end of
input the span breakdown is written to ``--result``.

``verify`` — re-checks sampled answers bit for bit against full-model
rescoring (``ServeSession.verify``) of the checkpoint that produced them,
hot-reloading the session from version to version in ascending order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.serve import HotReloader, ServeSession

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from layers import install_serving_spans  # noqa: E402
from spans import Tracer, breakdown  # noqa: E402


def command_serve(args) -> int:
    tracer = Tracer()
    counters = {"pairs": 0, "swapped": 0, "rejected": 0}
    install_serving_spans(tracer, counters)
    session = ServeSession.from_checkpoint_dir(args.checkpoint_dir)
    reloader = HotReloader(session) if args.watch else None
    pending = []

    def lines():
        for line in sys.stdin:
            if line.strip():
                pending.append(tracer.open("request"))
                yield line

    for response in session.serve_lines(lines(), default_k=10, robust=True, reloader=reloader):
        write = tracer.open("serve.write")
        sys.stdout.write(response + "\n")
        sys.stdout.flush()
        tracer.close(write)
        tracer.close(pending.pop())
    tracer.unwrap_all()

    reloads = breakdown(tracer, "reload")
    result = {
        "request": requests_without_reloads(breakdown(tracer, "request"), reloads),
        "reload": reloads,
        "pairs": counters["pairs"],
        "swapped": counters["swapped"],
        "rejected": counters["rejected"],
        # The first call of each is the session's own set-up; later store
        # builds, loads and models happen inside reloads.
        "setup": {
            name: (tracer.durations(name) or [0.0])[0]
            for name in ("setup.dataset", "setup.model")
        },
        "store_build_s": tracer.durations("store.build"),
        "checkpoint_load_s": tracer.durations("checkpoint.load"),
        "canary_s": tracer.durations("reload.canary"),
    }
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    if args.spans:
        tracer.dump(args.spans)
    return 0


def requests_without_reloads(requests: dict, reloads: dict) -> dict:
    """The request breakdown with every reload subtree taken out.

    Reloads run inside the request that triggered them; the reload root's
    own self time shows up there under ``reload``.
    """
    self_s = dict(requests["self_s"])
    for name, seconds in reloads["self_s"].items():
        key = "reload" if name == "residual" else name
        self_s[key] = self_s.get(key, 0.0) - seconds
    return {
        "count": requests["count"],
        "wall_s": requests["wall_s"] - reloads["wall_s"],
        "self_s": {name: seconds for name, seconds in self_s.items() if abs(seconds) > 1e-12},
    }


def command_verify(args) -> int:
    with open(args.samples) as handle:
        samples = json.load(handle)
    by_version = {}
    for sample in samples:
        by_version.setdefault(int(sample["response"]["params_version"]), []).append(sample)
    paths = {int(version): path for version, path in json.loads(args.versions).items()}
    checked = mismatched = 0
    session = None
    reloader = None
    for version in sorted(by_version):
        if version not in paths:
            mismatched += len(by_version[version])
            continue
        if session is None:
            session = ServeSession.from_checkpoint_dir(
                args.checkpoint_dir, checkpoint=paths[version]
            )
            reloader = HotReloader(session)
        else:
            outcome = reloader.reload(paths[version])
            if not outcome.swapped:
                mismatched += len(by_version[version])
                continue
        for sample in by_version[version]:
            checked += 1
            if not session.verify(sample["payload"], sample["response"], default_k=10):
                mismatched += 1
    with open(args.result, "w") as handle:
        json.dump({"checked": checked, "mismatched": mismatched}, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    serve = commands.add_parser("serve")
    serve.add_argument("--checkpoint-dir", required=True)
    serve.add_argument("--watch", action="store_true")
    serve.add_argument("--result", required=True)
    serve.add_argument("--spans", default=None)
    verify = commands.add_parser("verify")
    verify.add_argument("--checkpoint-dir", required=True)
    verify.add_argument("--samples", required=True)
    verify.add_argument("--versions", required=True, help="JSON {version: checkpoint path}")
    verify.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return command_serve(args) if args.command == "serve" else command_verify(args)


if __name__ == "__main__":
    raise SystemExit(main())
