"""Golden CSVs: the shipped Fig. 1 configs cut to one small cell each.

Each config is cut to its first sweep value, n = 120 nodes and one
replicate, and its ``rows_to_csv_text`` is compared byte for byte with a
committed file under ``tests/golden/``.  A change that claims to leave
the numbers alone (a faster eigensolve path, a batched k-means) must
pass this test without regenerating the files.

The files were written with numpy 2.4.6 (scipy 1.17.1) on OpenBLAS
0.3.31 (64-bit ints, DYNAMIC_ARCH, Haswell kernels) on x86_64, Python
3.11.  The residual columns are BLAS sums, so another BLAS build may
differ in the last digits.

Regenerate only for a declared change of the numbers:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
from pathlib import Path

import pytest

from blockfactor.bench import ExperimentSpec, rows_to_csv_text, run_simulation

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("fig1a", "fig1b", "fig1c")
N_NODES = 120


def one_cell_spec(config: str) -> ExperimentSpec:
    """The config cut to its first sweep value, N_NODES nodes, 1 replicate."""
    spec = ExperimentSpec.from_json(ROOT / "configs" / f"{config}.json")
    changes = {"replicates": 1, spec.sweep: [N_NODES if spec.sweep == "n" else spec.sweep_values[0]]}
    if spec.sweep != "n":
        changes["n"] = N_NODES
    return dataclasses.replace(spec, **changes)


def csv_text(config: str) -> str:
    return rows_to_csv_text(run_simulation(one_cell_spec(config)))


@pytest.mark.parametrize("config", CONFIGS)
def test_csv_matches_golden(config):
    expected = (GOLDEN / f"{config}.csv").read_bytes()
    assert csv_text(config).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        (GOLDEN / f"{name}.csv").write_bytes(csv_text(name).encode())
        print(f"wrote {GOLDEN / f'{name}.csv'}")
