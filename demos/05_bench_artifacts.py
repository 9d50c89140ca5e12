"""The benchmark harness end to end: multi-split runs, degree breakdown,
and compatibility heatmaps as reviewable artifacts.

Everything lands in demo_out/ as plain JSON, text, CSV and SVG, written
atomically so a crashed run never leaves half a file.
"""

import os

import numpy as np

from compatgnn import (RunConfig, generate_graph, generate_splits,
                       make_synth_spec, observed_cm, run_bench)
from compatgnn.bench import write_text_atomic
from compatgnn.heatmap import cm_to_csv, cm_to_svg

OUT = "demo_out"


def main():
    spec = make_synth_spec(600, 5, 0.4, "easy", 10.0, seed=2)
    g = generate_graph(spec)
    splits = generate_splits(g, 5, seed=0)

    cfg = RunConfig(model="compatgnn", split_ids=list(range(5)), lr=0.05,
                    weight_decay=5e-4, patience=30, max_epochs=300,
                    nhidden=32, layers=2, lambda_=0.1)
    report = run_bench(g, splits, cfg, out_dir=OUT)
    print(report.text_table())

    # accuracy by degree: sparse test nodes get less structural evidence
    b = report.degree_buckets
    lo, hi = b["mean_accuracy"][0], b["mean_accuracy"][-1]
    print(f"lowest-degree bucket {100 * lo:.1f}% vs "
          f"highest-degree bucket {100 * hi:.1f}%")

    cm = observed_cm(g)
    write_text_atomic(os.path.join(OUT, "cm_observed.csv"), cm_to_csv(cm.m))
    write_text_atomic(os.path.join(OUT, "cm_observed.svg"),
                      cm_to_svg(cm.m, title="observed compatibility"))

    est = np.asarray(report.runs[0]["metadata"]["cm_estimate"])
    write_text_atomic(os.path.join(OUT, "cm_estimated.svg"),
                      cm_to_svg(est, title="estimated compatibility"))
    print(f"\nmax |estimated - observed|: {np.abs(est - cm.m).max():.3f}")
    print(f"artifacts in {OUT}/: " + ", ".join(sorted(os.listdir(OUT))))


if __name__ == "__main__":
    main()
