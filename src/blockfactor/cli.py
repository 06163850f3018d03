"""Command-line benchmark harness.

Subcommands: factorize, simulate, realdata, report.  See README for the
experiment-spec JSON schema and output formats.
"""

import argparse
import sys
import warnings

import numpy as np

from . import bench
from .datasets import DATASETS
from .errors import BlockfactorError
from .io import format_labels, load_graph, save_labels
from .metrics import misclustered_count, nmi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockfactor",
        description="Community detection by symmetric NMF tri-factorization, "
        "with spectral baselines and block-model benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fact = sub.add_parser("factorize", help="cluster one graph file")
    p_fact.add_argument("graph", help="edge list or GML file")
    p_fact.add_argument("--k", type=int, required=True)
    p_fact.add_argument("--method", choices=bench.METHODS, default="osntf")
    p_fact.add_argument("--out", default=None, help="labels file (default: stdout)")
    p_fact.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="run a simulation sweep from a JSON spec")
    p_sim.add_argument("spec", help="experiment spec (JSON)")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--replicates", type=int, default=None,
                       help="override the spec's replicate count")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--spot-check", action="store_true",
                       help="re-verify 5%% of rows from their persisted labels")
    p_sim.add_argument("--quiet", action="store_true")

    p_real = sub.add_parser("realdata", help="results report of the methods on a named dataset")
    p_real.add_argument("dataset", choices=DATASETS)
    p_real.add_argument("--methods", default=",".join(bench.METHODS[:4]),
                        help="comma-separated subset of " + ",".join(bench.METHODS))
    p_real.add_argument("--out", default=None, help="also write the rows as a simulate CSV")
    p_real.add_argument("--seed", type=int, default=0)

    p_rep = sub.add_parser("report", help="Markdown results tables of simulate CSVs")
    p_rep.add_argument("csvs", nargs="+", help="CSV files produced by simulate")
    return parser


def _cmd_factorize(args) -> int:
    g, truth = load_graph(args.graph)
    out = bench.run_method(g, args.k, args.method, seed=args.seed)
    if args.out:
        save_labels(out.labels, args.out, names=g.node_names)
    else:
        sys.stdout.write(format_labels(out.labels, names=g.node_names))
    print(f"# method={args.method} n={g.n} k={args.k}", file=sys.stderr)
    if out.iterations:
        print(
            f"# iterations={out.iterations} residual={out.residual:.6g}"
            + (f" orthogonality_drift={out.orthogonality_drift:.6g}"
               if out.orthogonality_drift is not None else ""),
            file=sys.stderr,
        )
    if truth is not None and truth.min() >= 0:
        print(
            f"# vs embedded labels: misclustered={misclustered_count(truth, out.labels)} "
            f"nmi={nmi(truth, out.labels):.4f}",
            file=sys.stderr,
        )
    return 0


def _cmd_simulate(args) -> int:
    spec = bench.ExperimentSpec.from_json(args.spec)
    if args.replicates is not None:
        import dataclasses

        spec = dataclasses.replace(spec, replicates=args.replicates)
    progress = None
    if not args.quiet:
        def progress(done, total):
            print(f"\r{done}/{total} cells", end="", file=sys.stderr, flush=True)
    with warnings.catch_warnings():
        if args.quiet:  # forked pool workers inherit the filter
            warnings.filterwarnings("ignore", message="clipped", category=UserWarning)
        rows = bench.run_simulation(spec, workers=args.workers, progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    bench.write_csv(rows, args.out)
    sys.stdout.write(bench.report([args.out]))
    if args.spot_check:
        checked = bench.verify_csv_rows(spec, args.out)
        print(f"spot-check: re-verified {checked} rows from persisted labels")
    return 0


def _cmd_realdata(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = bench.realdata_table(args.dataset, methods=methods, seed=args.seed)
    if args.out:
        bench.write_csv(rows, args.out)
    sys.stdout.write(bench.report([rows]))  # what report prints for the --out CSV
    return 0


def _cmd_report(args) -> int:
    sys.stdout.write(bench.report(args.csvs))
    return 0


_COMMANDS = {"factorize": _cmd_factorize, "simulate": _cmd_simulate,
             "realdata": _cmd_realdata, "report": _cmd_report}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # scoped, so a caller's floating-point error state is left as it was
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (BlockfactorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
