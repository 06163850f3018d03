"""Golden CSVs: the shipped Fig. 1 configs cut to one small cell each, and karate.

Each config is cut to its first sweep value, n = 120 nodes and one
replicate, and its ``rows_to_csv_text`` is compared byte for byte with a
committed file under ``tests/golden/``, as is ``realdata_table("karate")``
at seed 0, the rows that ``blockfactor realdata karate`` writes.  A
change that claims to leave the numbers alone (a faster eigensolve path,
a batched k-means) must pass this test without regenerating the files.

The files were written with numpy 2.4.6 (scipy 1.17.1) on OpenBLAS
0.3.31 (64-bit ints, DYNAMIC_ARCH, Haswell kernels) on x86_64, Python
3.11.  The residual columns take ||X||^2 as a numpy sum, so they do not
depend on the BLAS thread count, but they still hold BLAS products, so
another BLAS build may differ in the last digits.  fig1c's two residuals
were regenerated when ||X||^2 moved from a BLAS dot product to numpy's
pairwise sum; no other column changed.

Regenerate only for a declared change of the numbers:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
from pathlib import Path

import pytest

from blockfactor.bench import ExperimentSpec, realdata_table, rows_to_csv_text, run_simulation

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = ("fig1a", "fig1b", "fig1c")
GOLDEN_NAMES = (*CONFIGS, "karate")
N_NODES = 120


def one_cell_spec(config: str) -> ExperimentSpec:
    """The config cut to its first sweep value, N_NODES nodes, 1 replicate."""
    spec = ExperimentSpec.from_json(ROOT / "configs" / f"{config}.json")
    changes = {"replicates": 1, spec.sweep: [N_NODES if spec.sweep == "n" else spec.sweep_values[0]]}
    if spec.sweep != "n":
        changes["n"] = N_NODES
    return dataclasses.replace(spec, **changes)


def csv_text(name: str) -> str:
    if name == "karate":
        return rows_to_csv_text(realdata_table("karate", seed=0))
    return rows_to_csv_text(run_simulation(one_cell_spec(name)))


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_csv_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert csv_text(name).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in GOLDEN_NAMES:
        (GOLDEN / f"{name}.csv").write_bytes(csv_text(name).encode())
        print(f"wrote {GOLDEN / f'{name}.csv'}")
