"""Command-line front end: fit a model, run the group split, generate data.

Exit codes: 0 success, 1 per-group partial failure in a split, 2 input or
model error.  All tables go to --out or stdout; progress and timing notes go
to stderr so the table output stays canonical.
"""

import argparse
import json
import sys
import time

from .datasets import LatticeParams, write_lattice_files
from .inference import InferenceConfig, InferenceError, fit
from .model import ModelError, build_model, read_data_csv, read_model_json
from .nodesplit import conflict_pvalues, result_to_csv, result_to_json_obj


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lgmsplit",
        description="Latent Gaussian model inference with group-wise "
                    "node-splitting conflict diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model and report posterior summaries")
    p_fit.add_argument("--data", required=True, help="CSV data file (NA = missing)")
    p_fit.add_argument("--model", required=True, help="JSON model document")
    p_fit.add_argument("--out", default=None, help="output path (default stdout)")
    p_fit.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_fit.add_argument("-v", "--verbose", action="store_true")

    p_cut = sub.add_parser("cut", help="group-wise conflict p-values")
    p_cut.add_argument("--data", required=True)
    p_cut.add_argument("--model", required=True)
    p_cut.add_argument("--group", default=None,
                       help="grouping variable (defaults to the model's group)")
    p_cut.add_argument("--q", type=float, default=0.10,
                       help="false discovery rate for flagging (default 0.10)")
    p_cut.add_argument("--full", action="store_true",
                       help="include per-group difference mean/covariance (json)")
    p_cut.add_argument("--threads", type=int, default=1,
                       help="max concurrent group runs")
    p_cut.add_argument("--out", default=None)
    p_cut.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p_cut.add_argument("-v", "--verbose", action="store_true")

    p_gen = sub.add_parser("gen-lattice", help="generate a synthetic lattice dataset")
    p_gen.add_argument("--m", type=int, default=4, help="lattice side length")
    p_gen.add_argument("--T", type=int, default=3, dest="t_periods",
                       help="number of periods")
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--out-dir", required=True)
    p_gen.add_argument("--mu", type=float, default=LatticeParams.mu)
    p_gen.add_argument("--beta", type=float, default=LatticeParams.beta)
    p_gen.add_argument("--sigma-u", type=float, default=LatticeParams.sigma_u)
    p_gen.add_argument("--sigma-v", type=float, default=LatticeParams.sigma_v)
    return parser


def _write_out(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args):
    data = read_data_csv(args.data)
    spec = read_model_json(args.model, data)
    return build_model(spec)


def cmd_fit(args):
    """Fit and report hyperparameter and latent posterior summaries."""
    model = _load(args)
    infcfg = InferenceConfig(verbose=args.verbose)
    t0 = time.monotonic()
    result = fit(model, infcfg)
    seconds = time.monotonic() - t0
    if args.fmt == "json":
        doc = {
            "hyperparameters": [
                {"name": nm, "mean": float(mu), "sd": float(sd)}
                for nm, mu, sd in zip(result.theta_names, result.theta_mean,
                                      result.theta_sd)],
            "latent": [
                {"index": i, "label": lab, "mean": float(mu), "sd": float(sd)}
                for i, (lab, mu, sd) in enumerate(zip(result.latent.labels,
                                                      result.latent.mean,
                                                      result.latent.sd))],
            "grid_points": int(result.grid.n_points),
            "timing": {"fit_seconds": seconds},
        }
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = ["section,name,mean,sd"]
        for nm, mu, sd in zip(result.theta_names, result.theta_mean, result.theta_sd):
            lines.append(f"hyper,{nm},{repr(float(mu))},{repr(float(sd))}")
        for lab, mu, sd in zip(result.latent.labels, result.latent.mean,
                               result.latent.sd):
            lines.append(f"latent,{lab},{repr(float(mu))},{repr(float(sd))}")
        _write_out("\n".join(lines) + "\n", args.out)
    print(f"fit finished in {seconds:.2f}s "
          f"({result.grid.n_points} grid points)", file=sys.stderr)
    return 0


def cmd_cut(args):
    """Run the node-split and emit the conflict table."""
    model = _load(args)
    group = args.group or model.spec.group
    if group is None:
        raise ModelError("no grouping variable: pass --group or set it in the model")
    if not 0 < args.q < 1:
        raise ModelError(f"--q must be in (0, 1), got {args.q}")
    infcfg = InferenceConfig(verbose=args.verbose)
    result = conflict_pvalues(model, group, q=args.q, config=infcfg,
                              n_threads=args.threads)
    if args.fmt == "json":
        doc = result_to_json_obj(result, full=args.full)
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write_out(result_to_csv(result), args.out)
    print(f"initial fit {result.fit_seconds:.2f}s, "
          f"node-split {result.split_seconds:.2f}s, "
          f"{len(result.flagged)} group(s) flagged at q={args.q:g}",
          file=sys.stderr)
    if result.n_failed:
        print(f"warning: {result.n_failed} group(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_gen_lattice(args):
    params = LatticeParams(mu=args.mu, beta=args.beta,
                           sigma_u=args.sigma_u, sigma_v=args.sigma_v)
    paths = write_lattice_files(args.out_dir, args.m, args.t_periods,
                                args.seed, params)
    for p in paths:
        print(p)
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "cut":
            return cmd_cut(args)
        if args.command == "gen-lattice":
            return cmd_gen_lattice(args)
    except (ModelError, InferenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in model document: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
