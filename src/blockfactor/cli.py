"""Command-line benchmark harness.

Subcommands: factorize, simulate, realdata, winners.  See README for the
experiment-spec JSON schema and output formats.
"""

import argparse
import sys

import numpy as np

from . import bench
from .datasets import DATASETS
from .errors import BlockfactorError
from .io import load_graph, save_labels
from .metrics import NMI_VARIANTS, misclustered_count, nmi


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

    p_real = sub.add_parser("realdata", help="benchmark table on a named dataset")
    p_real.add_argument("dataset", choices=DATASETS)
    p_real.add_argument("--methods", default=",".join(bench.METHODS[:4]),
                        help="comma-separated subset of " + ",".join(bench.METHODS))
    p_real.add_argument("--k", type=int, default=2)
    p_real.add_argument("--nmi-variant", choices=NMI_VARIANTS, default="sum")
    p_real.add_argument("--out", default=None, help="also write the table as CSV")
    p_real.add_argument("--seed", type=int, default=0)

    p_win = sub.add_parser("winners", help="best-method counts from simulate CSVs")
    p_win.add_argument("csvs", nargs="+", help="CSV files produced by simulate")
    return parser


def _cmd_factorize(args) -> int:
    g, truth = load_graph(args.graph)
    out = bench.run_method(g, args.k, args.method, seed=args.seed)
    if args.out:
        save_labels(out.labels, args.out, names=g.node_names)
    else:
        for i, lab in enumerate(out.labels):
            print(int(lab) if g.node_names is None else f"{g.node_names[i]}\t{int(lab)}")
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
    rows = bench.run_simulation(spec, workers=args.workers, progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    bench.write_csv(rows, args.out)
    print(bench.summarize(rows))
    if args.spot_check:
        checked = bench.verify_csv_rows(spec, args.out)
        print(f"spot-check: re-verified {checked} rows from persisted labels")
    return 0


def _cmd_realdata(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = bench.realdata_table(
        args.dataset, methods=methods, seed=args.seed, k=args.k, nmi_variant=args.nmi_variant,
    )
    print(bench.format_realdata_table(rows))
    if args.out:
        import csv as _csv

        with open(args.out, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["dataset", "method", "n", "misclustered", "nmi"])
            for r in rows:
                w.writerow([r["dataset"], r["method"], r["n"], r["misclustered"], repr(r["nmi"])])
    return 0


def _cmd_winners(args) -> int:
    result = bench.winner_counts(args.csvs)
    print(bench.format_winner_table(result))
    return 0


_COMMANDS = {"factorize": _cmd_factorize, "simulate": _cmd_simulate,
             "realdata": _cmd_realdata, "winners": _cmd_winners}


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
