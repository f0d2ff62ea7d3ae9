"""Command line pipeline: simulate, reduce, synthesize, detect, compare.

Every verb accepts the shared flags (--seed, --out, --family, --depth,
--window, --interval, --quantile) even where a verb has no use for one, so
invocations can be assembled uniformly.  Exit codes: 0 on success, 2 for
input or parse problems, 3 for violated data contracts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, formats, gaussian, pipeline
from .errors import (
    ContractError,
    FamilyMismatchError,
    InputError,
)
from .reducer import ReductionPolicy, synthesize_windows
# No verb calls the single-window form any more, but it stays importable under
# this name: perfbench's tracer test patches and restores it here.
from .reducer import synthesize as synthesize_register  # noqa: F401
from .scenario import load_scenario
from .telemetry import Collector, deltas, poll, select_server_ports
from .wavelets import make_filter_pair

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _add_common(sub: argparse.ArgumentParser, out_required: bool = True) -> None:
    sub.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    sub.add_argument(
        "--out", required=out_required, help="output file or directory"
    )
    sub.add_argument(
        "--family",
        default=None,
        help="wavelet family: haar, db2, db3, db4 (default db2)",
    )
    sub.add_argument(
        "--depth", type=int, default=None, help="reduction depth (default 1)"
    )
    sub.add_argument(
        "--window", type=int, default=None, help="window size in samples (default 256)"
    )
    sub.add_argument(
        "--interval",
        type=float,
        default=None,
        help="polling interval in seconds (default 10, scenario file may set it)",
    )
    sub.add_argument(
        "--quantile",
        type=float,
        default=0.01,
        help="training quantile for the detection threshold (default 0.01)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regwave",
        description="Reduce polled switch registers with wavelet packets and "
        "check that anomalies survive the reduction.",
    )
    parser.add_argument("--version", action="version", version=f"regwave {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("simulate", help="run a scenario and export counter CSVs")
    p.add_argument("scenario", help="scenario file")
    p.add_argument(
        "--server-ports-only",
        action="store_true",
        help="export only the ports marked server_ports in the scenario",
    )
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("reduce", help="difference a counter CSV and reduce each window")
    p.add_argument("register", help="counter CSV from simulate")
    p.add_argument(
        "--min-energy-ratio",
        type=float,
        default=0.0,
        help="stop descending when the kept child falls below this fraction "
        "of parent energy (default 0, disabled)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("synthesize", help="rebuild a series from a reduced file")
    p.add_argument("reduced", help="reduced-register file")
    _add_common(p)
    p.set_defaults(func=cmd_synthesize)

    p = subs.add_parser("detect", help="fit the Gaussian detector and flag a series")
    p.add_argument("register", help="counter CSV from simulate")
    p.add_argument(
        "--train",
        type=int,
        default=0,
        help="fit on the first N delta samples (default: the whole series)",
    )
    p.add_argument("--model", default=None, help="reuse a saved model file")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser(
        "compare", help="synthesize from a reduced file and compare detections"
    )
    p.add_argument("register", help="counter CSV the reduced file was built from")
    p.add_argument("reduced", help="reduced-register file")
    p.add_argument(
        "--train",
        type=int,
        default=0,
        help="fit one model on the first N delta samples "
        "(default: fit per window on its own samples)",
    )
    p.add_argument("--model", default=None, help="score with a saved model file")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    return parser


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    interval = args.interval if args.interval is not None else config.interval
    switches = config.build_switches(seed=args.seed)
    store = poll(
        Collector(), switches, interval=interval, duration=config.duration
    )
    if args.server_ports_only:
        store = select_server_ports(store, config.server_port_keys())
    os.makedirs(args.out, exist_ok=True)
    written = formats.export_store(store, args.out)
    n_ticks = round(config.duration / interval)
    if n_ticks == 0:
        print("warning: scenario duration is 0, export is empty", file=sys.stderr)
    print(
        f"simulated {config.name!r}: {n_ticks} snapshots per port, "
        f"{len(written)} register files in {args.out}"
    )
    return EXIT_OK


def _effective(value, default):
    return default if value is None else value


def cmd_reduce(args) -> int:
    family = _effective(args.family, "db2")
    depth = _effective(args.depth, 1)
    window = _effective(args.window, 256)
    _, _, counters = formats.read_register_csv(args.register)
    series = deltas(counters)
    filters = make_filter_pair(family)
    policy = ReductionPolicy(max_depth=depth, min_energy_ratio=args.min_energy_ratio)
    windows, dropped = pipeline.reduce_series(series, filters, policy, window)
    if dropped:
        print(
            f"warning: {dropped} trailing samples do not fill a window and were "
            "dropped",
            file=sys.stderr,
        )
    formats.write_reduced_file(
        args.out,
        windows,
        family=family,
        window_size=window,
        depth=depth,
        min_energy_ratio=args.min_energy_ratio,
        source=args.register,
        total_samples=int(series.shape[0]),
        dropped_samples=dropped,
    )
    kept = windows[0].register.coeffs.shape[0]
    print(
        f"reduced {len(windows)} window(s) of {window} samples to {kept} "
        f"coefficients each (path {windows[0].register.path!r}) in {args.out}"
    )
    return EXIT_OK


def cmd_synthesize(args) -> int:
    meta, windows = formats.read_reduced_file(args.reduced)
    filters = make_filter_pair(meta["family"])
    if args.family is not None and args.family != meta["family"]:
        raise FamilyMismatchError(
            f"file was reduced with {meta['family']!r}, not {args.family!r}"
        )
    rebuilt = synthesize_windows([w.register for w in windows], filters)
    values = np.concatenate([np.zeros(0), *rebuilt])
    indices = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.arange(w.start, w.start + len(r)) for w, r in zip(windows, rebuilt)]
    )
    formats.write_series_csv(args.out, values, label="synthesized", indices=indices)
    print(f"synthesized {len(windows)} window(s), {values.size} samples, in {args.out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    _, _, counters = formats.read_register_csv(args.register)
    series = deltas(counters).astype(np.float64)
    if args.model:
        model, _ = formats.read_model_file(args.model)
        if model.epsilon is None:
            raise InputError(f"model {args.model} carries no epsilon")
        trained_on = f"model file {args.model}"
    else:
        train = args.train if args.train else series.shape[0]
        if train < 2 or train > series.shape[0]:
            raise InputError(
                f"--train must lie in [2, {series.shape[0]}], got {train}"
            )
        model = pipeline.fit_series_model(series[:train], args.quantile)
        trained_on = f"{args.register}[0:{train})"
    report = gaussian.detect(model, series)
    os.makedirs(args.out, exist_ok=True)
    formats.write_model_file(
        os.path.join(args.out, "model.json"), model, training_window=trained_on
    )
    formats.write_series_csv(
        os.path.join(args.out, "probabilities.csv"),
        report.probabilities,
        label="probability",
    )
    formats.write_series_csv(
        os.path.join(args.out, "flags.csv"), report.flags.astype(float), label="flag"
    )
    flagged = report.flagged_indices()
    print(
        f"flagged {flagged.size} of {series.shape[0]} samples "
        f"(epsilon {model.epsilon:.6g}); outputs in {args.out}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    _, _, counters = formats.read_register_csv(args.register)
    series = deltas(counters).astype(np.float64)
    meta, windows = formats.read_reduced_file(args.reduced)
    for flag, key in (("family", "family"), ("window", "window_size"), ("depth", "depth")):
        given = getattr(args, flag)
        if given is not None and given != meta[key]:
            raise InputError(
                f"--{flag} {given!r} conflicts with the reduced file's "
                f"{key} {meta[key]!r}"
            )
    filters = make_filter_pair(meta["family"])
    model = None
    if args.model:
        model, _ = formats.read_model_file(args.model)
    results = pipeline.compare_windows(
        series,
        windows,
        filters,
        model=model,
        train=args.train,
        quantile=args.quantile,
    )
    os.makedirs(args.out, exist_ok=True)
    doc = {
        "source": args.register,
        "reduced": args.reduced,
        "family": meta["family"],
        "window_size": meta["window_size"],
        "depth": meta["depth"],
        "quantile": args.quantile,
        "windows": [],
    }
    for res in results:
        rep = res.report
        doc["windows"].append(
            {
                "index": res.index,
                "start": res.start,
                "epsilon": res.epsilon,
                "compression_ratio": rep.compression_ratio,
                "rmse": rep.rmse,
                "prd": rep.prd,
                "flags_original": list(rep.flags_original),
                "flags_synthesized": list(rep.flags_synthesized),
                "jaccard": rep.jaccard,
                "preserved_precision": rep.preserved_precision,
                "preserved_recall": rep.preserved_recall,
            }
        )
        tag = f"window{res.index:03d}"
        formats.write_series_csv(
            os.path.join(args.out, f"{tag}_original.csv"), res.original, label="original"
        )
        formats.write_series_csv(
            os.path.join(args.out, f"{tag}_synthesized.csv"),
            res.synthesized,
            label="synthesized",
        )
        formats.write_series_csv(
            os.path.join(args.out, f"{tag}_prob_original.csv"),
            res.prob_original,
            label="probability",
        )
        formats.write_series_csv(
            os.path.join(args.out, f"{tag}_prob_synthesized.csv"),
            res.prob_synthesized,
            label="probability",
        )
        print(
            f"window {res.index}: jaccard {rep.jaccard:.3f} rmse {rep.rmse:.4g} "
            f"prd {rep.prd:.3f}% flags {len(rep.flags_original)}/"
            f"{len(rep.flags_synthesized)}"
        )
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"comparison report in {os.path.join(args.out, 'report.json')}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
