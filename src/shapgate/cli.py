"""Command-line interface.

Subcommands:
  run      full pipeline: fit, select clustering by CV, train variants, report
  cv       cross-validated clustering grid only, printed as a table
  explain  dump per-row attribution matrices for the train and test splits
  cluster  dump cluster assignments for the train and test splits
  report   re-render report files from a previously written manifest
  synth    write a synthetic stand-in data file in the published format

Exit codes: 0 success, 1 usage error (an output that cannot be written
among them, which leaves the old outputs as they were), 2 data error,
3 numerical failure, 4 a worker process died or could not be started.
"""

import argparse
import dataclasses
import json
import os
import sys

from . import attribution, dataset, gbm, kernel_kmeans, metrics, pipeline, synth
from .errors import DataError, ShapgateError, UsageError


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2; route errors through UsageError
    instead so every usage problem maps to exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _add_common(sub):
    sub.add_argument("--dataset", required=True, choices=sorted(dataset.SCHEMAS),
                     help="which benchmark table to use")
    sub.add_argument("--data-path", default=None,
                     help="explicit data file (default: $SHAPGATE_DATA_DIR or ./data)")
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--config", default=None,
                     help="JSON file overriding experiment settings (see README)")


def build_parser():
    parser = _Parser(prog="shapgate", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full pipeline with report emission")
    _add_common(run)
    run.add_argument("--seeds", type=int, default=None,
                     help="number of master-seed repetitions (default 10)")
    run.add_argument("--out", default="results", help="report output directory")
    run.add_argument("--variant", default=None,
                     help="comma-separated variant subset (default: all four)")

    cv = subs.add_parser("cv", help="clustering grid selection only")
    _add_common(cv)
    cv.add_argument("--out", default=None, help="optional directory for the grid CSV")

    explain = subs.add_parser("explain", help="dump attribution matrices")
    _add_common(explain)
    explain.add_argument("--out", default="results", help="output directory")

    cluster = subs.add_parser("cluster", help="dump cluster assignments")
    _add_common(cluster)
    cluster.add_argument("--out", default="results", help="output directory")
    cluster.add_argument("--kernel", default=None,
                         help="kernel label (linear, poly_d<D>_c<C>, rbf_g<G>); "
                              "omit to select by cross-validation")
    cluster.add_argument("--k", type=int, default=None,
                         help="cluster count; omit to select by cross-validation")

    report = subs.add_parser("report", help="re-render files from a manifest")
    report.add_argument("--manifest", required=True, help="manifest.json from a run")
    report.add_argument("--out", default="results", help="output directory")

    sy = subs.add_parser("synth", help="write a synthetic stand-in data file")
    sy.add_argument("--dataset", required=True, choices=sorted(dataset.SCHEMAS))
    sy.add_argument("--out", required=True,
                    help="output file, or a directory (existing, or a name ending "
                         "in a separator) to receive the dataset's published filename")
    sy.add_argument("--seed", type=int, default=synth.STANDIN_SEED)

    return parser


def _spec_from_flag(label):
    # Labels here come from flags or config files, so a bad one is a usage
    # mistake, not a data problem.
    try:
        return kernel_kmeans.spec_from_label(label)
    except DataError as e:
        raise UsageError(str(e)) from e


def _grid_from_json(cells):
    grid = []
    for cell in cells:
        if not (isinstance(cell, list) and len(cell) == 2 and isinstance(cell[0], str)):
            raise UsageError(f"grid cells must be [kernel_label, k] pairs, got {cell!r}")
        label, k = cell
        grid.append((_spec_from_flag(label), k))
    return grid


# a config file names ExperimentConfig's fields, with "gbm" for gbm_config
_CONFIG_KEYS = {"gbm" if f.name == "gbm_config" else f.name
                for f in dataclasses.fields(pipeline.ExperimentConfig)}


def load_config(args):
    """ExperimentConfig from defaults, then the JSON file, then explicit flags;
    the ExperimentConfig checks every value."""
    settings = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as e:
            raise UsageError(f"cannot read config {args.config!r}: {e}") from e
        except json.JSONDecodeError as e:
            raise UsageError(f"config {args.config!r} is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(raw) - _CONFIG_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys {unknown}; expected {sorted(_CONFIG_KEYS)}")
        for key in ("grid", "variants"):
            if key in raw and not isinstance(raw[key], list):
                raise UsageError(f'config key "{key}" must be a list, got {raw[key]!r}')
        settings.update(raw)

    settings["dataset"] = args.dataset
    if args.seed is not None:
        settings["master_seed"] = args.seed
    if getattr(args, "seeds", None) is not None:
        settings["n_seeds"] = args.seeds
    if getattr(args, "variant", None) is not None:
        settings["variants"] = tuple(v.strip() for v in args.variant.split(",") if v.strip())
    if "gbm" in settings:
        if not isinstance(settings["gbm"], dict):
            raise UsageError('config key "gbm" must be an object of GBM settings')
        try:
            settings["gbm_config"] = gbm.GbmConfig(**settings.pop("gbm"))
        except TypeError as e:  # a key GbmConfig does not name
            raise UsageError(f"bad GBM settings: {e}") from e
    if "grid" in settings:
        settings["grid"] = _grid_from_json(settings["grid"])
    if "variants" in settings:
        settings["variants"] = tuple(settings["variants"])
    return pipeline.ExperimentConfig(**settings)


def _print_record(record):
    print(f"[{record.dataset} seed={record.master_seed}] "
          f"chosen kernel={record.chosen_kernel} k={record.chosen_k} "
          f"(train={record.n_train}, test={record.n_test}, features={record.n_features})")
    for name, vr in record.variants.items():
        if vr.report is None:
            print(f"  {name:<18} FAILED: {vr.error}")
        else:
            print(f"  {name:<18} " + " ".join(
                f"{metric}={getattr(vr.report, metric):.3f}" for metric in metrics.REPORTED))


def _write(out_dir, files):
    for path in pipeline.write_files(out_dir, files):
        print(f"wrote {path}")


def cmd_run(args):
    config = load_config(args)
    path = dataset.resolve_data_path(config.dataset, args.data_path)
    records = pipeline.run_many(config, path)
    for record in records:
        _print_record(record)
    for written in pipeline.emit_report(records, args.out):
        print(f"wrote {written}")
    return 0


def cmd_cv(args):
    config = load_config(args)
    result = pipeline.select(config, dataset.resolve_data_path(config.dataset, args.data_path)).grid
    print(f"{'kernel':<14} {'k':>2}  {'mean_f1':>8}  fold F1")
    for i, cell in enumerate(result.cells):
        marker = " *" if i == result.best_index else ""
        folds = [f"{v:.3f}" for v in cell.fold_f1]
        if cell.error is not None:
            folds.append(cell.error)
        print(f"{cell.kernel:<14} {cell.k:>2}  {cell.mean_f1:>8.4f}  {' '.join(folds)}{marker}")
    if args.out is not None:
        lines = ["kernel,k,mean_f1,fold_f1,error"]
        for cell in result.cells:
            folds = ";".join(repr(v) for v in cell.fold_f1)
            lines.append(f"{cell.kernel},{cell.k},{cell.mean_f1!r},{folds},{cell.error or ''}")
        _write(args.out, [(f"{config.dataset}_cv_grid.csv", "\n".join(lines) + "\n")])
    return 0


def cmd_explain(args):
    config = load_config(args)
    path = dataset.resolve_data_path(config.dataset, args.data_path)
    prepared = pipeline.prepare(config, path)
    core = pipeline.fit_core(prepared, config)
    _write(args.out, [(f"{config.dataset}_shap_{split}.csv", attribution.shap_matrix_to_csv(sm))
                      for split, sm in (("train", core.shap_train), ("test", core.shap_test))])
    print(f"base value {core.shap_train.base_value!r}")
    return 0


def cmd_cluster(args):
    config = load_config(args)
    if (args.kernel is None) != (args.k is None):
        raise UsageError("--kernel and --k must be given together (or neither)")
    chosen = None
    if args.kernel is not None:
        chosen = (_spec_from_flag(args.kernel), args.k, config.master_seed)
    sel = pipeline.select(config, dataset.resolve_data_path(config.dataset, args.data_path), chosen)
    spec, k, _ = sel.chosen
    if chosen is None:
        print(f"selected kernel={spec.label()} k={k} by cross-validation")
    model, test_assignment = pipeline.refit_clusters(sel.core, spec, k, config.master_seed)
    lines = ["row,split,cluster"]
    for row, c in zip(sel.prepared.train_ids, model.assignment):
        lines.append(f"{row},train,{c}")
    for row, c in zip(sel.prepared.test_ids, test_assignment):
        lines.append(f"{row},test,{c}")
    sizes = ",".join(str(int(s)) for s in model.sizes)
    print(f"kernel={spec.label()} k={k} train cluster sizes [{sizes}]")
    _write(args.out, [(f"{config.dataset}_clusters.csv", "\n".join(lines) + "\n")])
    return 0


def cmd_report(args):
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read manifest {args.manifest!r}: {e}") from e
    except json.JSONDecodeError as e:
        raise DataError(f"manifest {args.manifest!r} is not valid JSON: {e}") from e
    records = pipeline.records_from_manifest(manifest)
    for written in pipeline.emit_report(records, args.out):
        print(f"wrote {written}")
    return 0


def cmd_synth(args):
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    out = args.out
    if os.path.isdir(out) or not os.path.basename(out):  # a directory, made if missing
        out = os.path.join(out, dataset.SCHEMAS[args.dataset].default_filename)
    print(f"wrote {synth.write_synthetic(args.dataset, out, seed=args.seed)}")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "cv": cmd_cv,
    "explain": cmd_explain,
    "cluster": cmd_cluster,
    "report": cmd_report,
    "synth": cmd_synth,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # synth's --out names a file; every other --out is a report directory
        if args.command != "synth" and getattr(args, "out", None) is not None:
            pipeline.check_writable(args.out)
        return _COMMANDS[args.command](args)
    except ShapgateError as e:
        print(f"{e.prefix}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
