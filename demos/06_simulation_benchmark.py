#!/usr/bin/env python3
"""Run a scaled-down benchmark sweep end to end: spec -> CSV -> spot check
-> results report.  The full-size specs live in configs/."""

import tempfile
import warnings
from pathlib import Path

from blockfactor.bench import ExperimentSpec, report, run_simulation, verify_csv_rows, write_csv

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

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "demo.csv"
    write_csv(rows, out)
    print(f"wrote {out} ({out.stat().st_size} bytes)")
    print("spot check:", verify_csv_rows(spec, out, fraction=0.1), "rows re-verified")

    # per (sweep value, method): NMI mean ± sd, mean misclustering rate,
    # best-NMI wins per (sweep value, replicate) cell, and the NMF methods'
    # paired NMI gain over the reg-spectral partition they start from
    print()
    print(report([out]), end="")
