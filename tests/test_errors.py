"""One rule each for integer-valued input, float-valued input, seeds and node
names, and typed errors for the matrices the eigensolver and
``assign_communities`` cannot use."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import blockfactor.spectral as spectral
from blockfactor.bench import ExperimentSpec, realdata_table, run_methods
from blockfactor.blockmodels import SbmParams, dcsbm_powerlaw_preset, sample_graph, sbm_snr_preset
from blockfactor.errors import InvalidInputError, float_array, integer_array
from blockfactor.factorization import Factorization, assign_communities, exactness_diagnostics, frobenius_residual, osntf, snmf
from blockfactor.graphs import Graph, induced_subgraph, symmetrize_directed
from blockfactor.io import save_gml, save_labels
from blockfactor.metrics import misclustering_rate, nmi
from blockfactor.spectral import kmeans, nmf_init_from_partition, sym_eigs_topk

POINTS = np.random.default_rng(0).standard_normal((10, 2))
PATH = Graph.from_edges(3, [(0, 1), (1, 2)])
CYCLE_WITH_NAN = sp.csr_array(np.roll(np.eye(200), 1, axis=1) + np.roll(np.eye(200), -1, axis=1))
CYCLE_WITH_NAN.data[0] = np.nan  # large enough for the ARPACK path
SBM = SbmParams(z=[0, 0, 1, 1], b=[[0.5, 0.1], [0.1, 0.5]])
NO_SUCH_DIR = Path(__file__).parent / "no such directory"  # open() would fail here
SPEC = dict(experiment="e", model="sbm", n=60, k=2, snr=3.0, avg_degree=[10.0], sweep="avg_degree", replicates=1)
NAN_START = np.ones((4, 2))
NAN_START[1, 0] = np.nan
INFINITE_START = np.ones((4, 2))
INFINITE_START[2, 1] = np.inf
NAN, INF = float("nan"), float("inf")
# each of these failed later with a message that named the wrong fault, or passed
NON_FINITE_PRESET_NUMBERS = {
    "NaN SBM degree": ("target_avg_degree", lambda: sbm_snr_preset(10, 2, 3.0, NAN)),
    "infinite SBM degree": ("target_avg_degree", lambda: sbm_snr_preset(10, 2, 3.0, INF)),
    "NaN SBM snr": ("snr", lambda: sbm_snr_preset(10, 2, NAN, 1.0)),
    "infinite SBM snr": ("snr", lambda: sbm_snr_preset(10, 2, INF, 1.0)),
    "NaN DCSBM degree": ("target_avg_degree", lambda: dcsbm_powerlaw_preset(30, 2, 3.0, NAN, 2.5, 0)),
    "infinite DCSBM snr": ("snr", lambda: dcsbm_powerlaw_preset(30, 2, INF, 5.0, 2.5, 0)),
    "infinite DCSBM beta": ("beta", lambda: dcsbm_powerlaw_preset(30, 2, 3.0, 5.0, INF, 0)),
    "negative SBM degree": ("target_avg_degree", lambda: sbm_snr_preset(30, 2, 3.0, -5.0)),
    "negative DCSBM degree": ("target_avg_degree", lambda: dcsbm_powerlaw_preset(30, 2, 3.0, -5.0, 2.5, 0)),
}
NAN_ROW = Factorization(h=np.array([[np.nan], [1.0]]), s=None, objective_trace=np.zeros(1), iterations=0, converged=False)

# each of these was silently truncated, or raised a bare numpy or scipy error
BAD_INPUT = {
    "fractional edge endpoint": lambda: Graph.from_edges(3, [(0.5, 1)]),
    "fractional node count": lambda: Graph.from_edges(2.5, [(0, 1)]),
    "string node count": lambda: Graph("3", [(0, 1)]),
    "string node count in from_edges": lambda: Graph.from_edges("3", [(0, 1)]),
    "fractional declared node count": lambda: symmetrize_directed([(0, 1)], n=1.5),
    "fractional subgraph node": lambda: induced_subgraph(PATH, [0.5, 1]),
    "fractional nmi labels": lambda: nmi([0.5, 1.2], [0, 1]),
    "string misclustering labels": lambda: misclustering_rate(["a", "b"], [0, 1]),
    "two-dimensional seeding labels": lambda: nmf_init_from_partition([[0, 1]], 3),
    "empty seeding labels": lambda: nmf_init_from_partition([], 3),
    "string seeding k": lambda: nmf_init_from_partition([0, 1], "x"),
    "NaN in a CSR matrix": lambda: sym_eigs_topk(CYCLE_WITH_NAN, 2),
    "NaN in a dense matrix": lambda: sym_eigs_topk(np.array([[np.nan, 1.0], [1.0, 0.0]]), 1),
    "infinity in a dense matrix": lambda: sym_eigs_topk(np.array([[np.inf, 1.0], [1.0, 0.0]]), 1),
    "upper-triangular matrix": lambda: sym_eigs_topk(np.triu(np.ones((4, 4))), 2),
    "upper-triangular CSR matrix": lambda: sym_eigs_topk(sp.csr_array(np.triu(np.ones((4, 4)))), 2),
    "NaN row of H": lambda: assign_communities([[np.nan, 1.0], [1.0, 0.0]]),
    "fractional preset n": lambda: sbm_snr_preset(2.5, 2, 3.0, 1.0),
    "preset n of 0": lambda: sbm_snr_preset(0, 2, 3.0, 1.0),
    "preset k of 0": lambda: sbm_snr_preset(10, 0, 3.0, 1.0),
    "string preset k": lambda: sbm_snr_preset(10, "2", 3.0, 1.0),
    "string preset snr": lambda: sbm_snr_preset(10, 2, "3", 1.0),
    "float DCSBM preset k": lambda: dcsbm_powerlaw_preset(30, 2.0, 3.0, 5.0, 2.5, 0),
    "string DCSBM preset beta": lambda: dcsbm_powerlaw_preset(30, 2, 3.0, 5.0, "x", 0),
    "string solver matrix": lambda: snmf([["a"]], 1, np.ones((1, 1))),
    "string solver start": lambda: snmf(np.eye(2), 1, [["a"], ["b"]]),
    "string k-means points": lambda: kmeans([["a"]], 1, 0),
    "string residual matrix": lambda: frobenius_residual([["a"]], np.ones((1, 1))),
    "string eigensolver matrix": lambda: sym_eigs_topk([["a"]], 1),
    "string H": lambda: assign_communities([["a", "b"]]),
    "string seeding offset": lambda: nmf_init_from_partition([0, 1], 2, offset="x"),
    "string sampling seed": lambda: sample_graph(SBM, seed="x"),
    "string k-means seed": lambda: kmeans(POINTS, 2, "x"),
    "NaN row of H in the diagnostics": lambda: exactness_diagnostics(np.eye(2), NAN_ROW),
    "node names as one string": lambda: Graph(3, [(0, 1)], node_names="abc"),
    "integer node names": lambda: Graph(3, [(0, 1)], node_names=[1, 2, 3]),
    "node names as one string in from_edges": lambda: Graph.from_edges(3, [(0, 1)], node_names="abc"),
    "node names as one integer": lambda: Graph(3, [(0, 1)], node_names=5),
    "complex solver matrix": lambda: snmf(np.array([[0, 1j], [1j, 0]]), 1, np.ones((2, 1))),
    "complex k-means points": lambda: kmeans(POINTS + 1j, 2, 0),
    "complex CSR matrix": lambda: sym_eigs_topk(sp.csr_array([[0, 1j], [1j, 0]]), 1),
    "fractional labels to save": lambda: save_labels([0.5, 1.7], NO_SUCH_DIR / "labels.txt"),
    "NaN label to save": lambda: save_labels([np.nan, 1.0], NO_SUCH_DIR / "labels.txt"),
    "two-dimensional labels to save": lambda: save_labels([[0, 1]], NO_SUCH_DIR / "labels.txt"),
    "fractional GML labels": lambda: save_gml(PATH, NO_SUCH_DIR / "g.gml", labels=0.9 * np.ones(3)),
    "two-dimensional GML labels": lambda: save_gml(PATH, NO_SUCH_DIR / "g.gml", labels=np.zeros((3, 1), int)),
    # each of these wrote a CSV that counts one cell's winner more than once, or one with no rows
    "no spec methods": lambda: ExperimentSpec(**SPEC, methods=[]),
    "repeated spec method": lambda: ExperimentSpec(**SPEC, methods=["osntf", "osntf", "spectral"]),
    "repeated swept value": lambda: ExperimentSpec(**{**SPEC, "avg_degree": [10.0, 10.0]}),
    "numerically equal swept values": lambda: ExperimentSpec(**{**SPEC, "avg_degree": [10, 10.0]}),
    "repeated swept n": lambda: ExperimentSpec(**{**SPEC, "n": [60, 80, 60], "avg_degree": 10.0, "sweep": "n"}),
    "no methods to run": lambda: run_methods(PATH, 2, [], seed=0),
    "repeated method to run": lambda: run_methods(PATH, 2, ["spectral", "spectral"], seed=0),
    "repeated real-data method": lambda: realdata_table("karate", methods=["osntf", "osntf"]),
    # each of these ran a solve, raised a bare numpy ValueError or TypeError, blamed an
    # update for a bad start, or returned an all-NaN start
    "zero SNMF k": lambda: snmf(np.eye(4), 0, np.ones((4, 0))),
    "zero OSNTF k": lambda: osntf(np.eye(4), 0, np.ones((4, 0))),
    "float SNMF k": lambda: snmf(np.eye(4), 2.0, np.ones((4, 2))),
    "float OSNTF k": lambda: osntf(np.eye(4), 2.0, np.ones((4, 2))),
    "bool SNMF k": lambda: snmf(np.eye(4), True, np.ones((4, 1))),
    "bool OSNTF k": lambda: osntf(np.eye(4), True, np.ones((4, 1))),
    "NaN SNMF start": lambda: snmf(np.eye(4), 2, NAN_START),
    "NaN OSNTF start": lambda: osntf(np.eye(4), 2, NAN_START),
    "infinite SNMF start": lambda: snmf(np.eye(4), 2, INFINITE_START),
    "infinite OSNTF start": lambda: osntf(np.eye(4), 2, INFINITE_START),
    "NaN seeding offset": lambda: nmf_init_from_partition([0, 1], 2, offset=float("nan")),
    "infinite seeding offset": lambda: nmf_init_from_partition([0, 1], 2, offset=float("inf")),
    **{name: make for name, (_, make) in NON_FINITE_PRESET_NUMBERS.items()},
}


@pytest.mark.parametrize("make", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_a_typed_error(make):
    with pytest.raises(InvalidInputError):
        make()


@pytest.mark.parametrize("field, make", NON_FINITE_PRESET_NUMBERS.values(), ids=NON_FINITE_PRESET_NUMBERS.keys())
def test_non_finite_preset_number_is_refused_by_name(field, make):
    with pytest.raises(InvalidInputError, match=f"^{field} must be a finite number"):
        make()


@pytest.mark.parametrize("option", ["restarts", "max_iter"])
def test_kmeans_takes_no_restart_or_step_count(monkeypatch, option):
    def forbidden(*args, **kwargs):
        raise AssertionError("k-means work started")

    monkeypatch.setattr(spectral, "_plusplus_centroids", forbidden)
    monkeypatch.setattr(spectral, "_lloyd", forbidden)
    with pytest.raises(TypeError, match=option):
        kmeans(POINTS, 2, 0, **{option: 5})


def test_integer_array_passes_int64_arrays_as_they_are():
    a = np.arange(4)
    assert integer_array(a, "x") is a
    for values in ([0, 1], [0.0, 1.0], np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.uint64)):
        b = integer_array(values, "x")
        assert b.dtype == np.int64 and b.tolist() == [0, 1]
    assert integer_array([], "x").shape == (0,)


def test_float_array_passes_float64_arrays_as_they_are():
    a = np.arange(4.0)
    assert float_array(a, "x") is a
    assert float_array([0, 1], "x").dtype == np.float64


@pytest.mark.parametrize(
    "values",
    [[0.5], [np.nan], [np.inf], [2.0**63], [True, False], ["1"], [[0], [1, 1]], [2**70],
     np.array([2**63], dtype=np.uint64), [1 + 0j]],
)
def test_integer_array_refuses_what_is_not_an_integer(values):
    with pytest.raises(InvalidInputError, match="x must be integers"):
        integer_array(values, "x")
