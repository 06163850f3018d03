#!/usr/bin/env python3
"""Run a scaled-down benchmark sweep end to end: spec -> CSV -> summary ->
winner counts.  The full-size specs live in configs/."""

import tempfile
import warnings
from pathlib import Path

from blockfactor.bench import (
    ExperimentSpec,
    format_winner_table,
    run_simulation,
    summarize,
    verify_csv_rows,
    winner_counts,
    write_csv,
)

warnings.filterwarnings("ignore", message="clipped")

spec = ExperimentSpec(
    experiment="demo-sweep",
    model="sbm",
    n=200,
    k=3,
    snr=3.0,
    avg_degree=[8.0, 16.0, 24.0],
    sweep="avg_degree",
    methods=["snmf", "osntf", "spectral", "reg-spectral"],
    replicates=4,
    base_seed=0,
)

rows = run_simulation(spec)
print(summarize(rows))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "demo.csv"
    write_csv(rows, out)
    print(f"\nwrote {out} ({out.stat().st_size} bytes)")
    print("spot check:", verify_csv_rows(spec, out, fraction=0.1), "rows re-verified")

    print("\nbest-method counts per (sweep value, replicate) cell:")
    print(format_winner_table(winner_counts([out])))
