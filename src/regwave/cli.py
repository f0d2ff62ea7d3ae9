"""Command line pipeline: simulate, reduce, synthesize, detect, compare.

Each verb takes only the flags it reads, and argparse refuses any other
(exit 2) before anything is read or written.  synthesize and compare take
family, window size and depth from the reduced file alone.  A saved --model
fixes its own threshold, so detect and compare refuse --train and --quantile
next to it.  Exit codes: 0 on success, 2 for input or parse problems and
outputs that cannot be written, 3 for violated data contracts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, formats, gaussian, pipeline
from .errors import AlignmentError, ContractError, InputError
from .reducer import ReductionPolicy, synthesize_windows
# No verb calls the single-window form any more, but it stays importable under
# this name: perfbench's tracer test patches and restores it here.
from .reducer import synthesize as synthesize_register  # noqa: F401
from .scenario import load_scenario
from .telemetry import deltas, poll, select_server_ports
from .wavelets import make_filter_pair

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3


def _add_detector_flags(sub: argparse.ArgumentParser, train_help: str) -> None:
    """The flags detect and compare share: where the model comes from."""
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--train", type=int, help=train_help)
    sub.add_argument(
        "--model",
        help="score with a saved model file, whose threshold is used as is "
        "(excludes --train and --quantile)",
    )
    sub.add_argument(
        "--quantile",
        type=float,
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
    p.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--interval",
        type=float,
        default=None,
        help="polling interval in seconds (default: the scenario's)",
    )
    p.add_argument(
        "--server-ports-only",
        action="store_true",
        help="export only the ports marked server_ports in the scenario",
    )
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("reduce", help="difference a counter CSV and reduce each window")
    p.add_argument("register", help="counter CSV from simulate")
    p.add_argument("--out", required=True, help="reduced-register file to write")
    p.add_argument(
        "--family", default="db2", help="wavelet family: haar, db2, db3, db4 (default db2)"
    )
    p.add_argument("--depth", type=int, default=1, help="reduction depth (default 1)")
    p.add_argument(
        "--window", type=int, default=256, help="window size in samples (default 256)"
    )
    p.add_argument(
        "--min-energy-ratio",
        type=float,
        default=0.0,
        help="stop descending when the kept child falls below this fraction "
        "of parent energy (default 0, disabled)",
    )
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("synthesize", help="rebuild a series from a reduced file")
    p.add_argument("reduced", help="reduced-register file")
    p.add_argument("--out", required=True, help="series CSV to write")
    p.set_defaults(func=cmd_synthesize)

    p = subs.add_parser("detect", help="fit the Gaussian detector and flag a series")
    p.add_argument("register", help="counter CSV from simulate")
    _add_detector_flags(
        p, "fit on the first N delta samples (default: the whole series)"
    )
    p.set_defaults(func=cmd_detect)

    p = subs.add_parser(
        "compare", help="synthesize from a reduced file and compare detections"
    )
    p.add_argument("register", help="counter CSV the reduced file was built from")
    p.add_argument("reduced", help="reduced-register file")
    _add_detector_flags(
        p,
        "fit one model on the first N delta samples "
        "(default: fit per window on its own samples)",
    )
    p.set_defaults(func=cmd_compare)

    return parser


def cmd_simulate(args) -> int:
    config = load_scenario(args.scenario)
    interval = args.interval if args.interval is not None else config.interval
    switches = config.build_switches(seed=args.seed)
    store = poll(switches, interval=interval, duration=config.duration)
    if args.server_ports_only:
        store = select_server_ports(store, config.server_port_keys())
    written = formats.export_store(store, args.out)
    n_ticks = round(config.duration / interval)
    if n_ticks == 0:
        print("warning: scenario duration is 0, export is empty", file=sys.stderr)
    print(
        f"simulated {config.name!r}: {n_ticks} snapshots per port, "
        f"{len(written)} register files in {args.out}"
    )
    return EXIT_OK


def _deltas(path) -> np.ndarray:
    """The per-interval deltas of a register CSV, as float64."""
    _, _, counters = formats.read_register_csv(path)
    return deltas(counters).astype(np.float64)


def cmd_reduce(args) -> int:
    series = _deltas(args.register)
    filters = make_filter_pair(args.family)
    policy = ReductionPolicy(max_depth=args.depth, min_energy_ratio=args.min_energy_ratio)
    registers, dropped = pipeline.reduce_series(series, filters, policy, args.window)
    if dropped:
        print(
            f"warning: {dropped} trailing samples do not fill a window and were "
            "dropped",
            file=sys.stderr,
        )
    formats.write_reduced_file(
        args.out, registers, policy, source=args.register, total_samples=series.shape[0]
    )
    low, high = min(r.depth for r in registers), max(r.depth for r in registers)
    depth, kept = f"{low}", f"{args.window >> low}"
    if high > low:
        depth, kept = f"{low}-{high}", f"{args.window >> high}-{kept}"
    print(
        f"reduced {len(registers)} window(s) of {args.window} samples at depth {depth} "
        f"to {kept} coefficients each in {args.out}"
    )
    return EXIT_OK


def cmd_synthesize(args) -> int:
    _, registers = formats.read_reduced_file(args.reduced)
    rebuilt = synthesize_windows(registers)
    formats.write_series_csv(args.out, rebuilt.ravel(), label="synthesized")
    print(f"synthesized {len(registers)} window(s), {rebuilt.size} samples, in {args.out}")
    return EXIT_OK


def _series_and_model(
    args, per_window: bool
) -> tuple[np.ndarray, gaussian.GaussianModel | None, float | None]:
    """The deltas of detect's or compare's register, the model that scores
    them, and the quantile of its threshold.

    A saved --model fixes its own threshold, so --train and --quantile are
    refused next to it before any file is read, and a model without one is
    refused.  Otherwise the model is fitted and calibrated on the first
    --train deltas, a prefix in [2, N]; without --train it is fitted on the
    whole series, or, with per_window, left None: each window is then scored
    by a fit on its own samples.
    """
    if args.model is not None:
        for flag in ("train", "quantile"):
            if getattr(args, flag) is not None:
                raise InputError(f"--{flag} cannot be combined with --model")
        model, _ = formats.read_model_file(args.model)
        if model.epsilon is None:
            raise InputError(f"model {args.model} carries no epsilon")
        return _deltas(args.register), model, model.quantile
    quantile = 0.01 if args.quantile is None else args.quantile
    series = _deltas(args.register)
    n = series.shape[0]
    if args.train is not None and not 2 <= args.train <= n:
        raise InputError(f"--train must lie in [2, {n}], got {args.train}")
    if args.train is None and per_window:
        return series, None, quantile
    prefix = series[: args.train]  # the whole series when train is None
    return series, gaussian.calibrate(gaussian.fit(prefix), prefix, quantile), quantile


def cmd_detect(args) -> int:
    series, model, _ = _series_and_model(args, per_window=False)
    train = series.shape[0] if args.train is None else args.train
    trained_on = (f"model file {args.model}" if args.model is not None
                  else f"{args.register}[0:{train})")
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
        os.path.join(args.out, "flags.csv"), report.flags, label="flag"
    )
    flagged = report.flagged_indices()
    print(
        f"flagged {flagged.size} of {series.shape[0]} samples "
        f"(epsilon {model.epsilon:.6g}); outputs in {args.out}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    series, model, quantile = _series_and_model(args, per_window=True)
    meta, registers = formats.read_reduced_file(args.reduced)
    if meta["total_samples"] != series.shape[0]:
        raise AlignmentError(
            f"{args.register} holds {series.shape[0]} deltas, but {args.reduced} was "
            f"reduced from {meta['total_samples']}"
        )
    result = pipeline.compare_windows(series, registers, model=model, quantile=quantile)
    os.makedirs(args.out, exist_ok=True)
    n = meta["window_size"]
    doc = {
        "source": args.register,
        "reduced": args.reduced,
        "family": meta["family"],
        "window_size": n,
        "depth": meta["depth"],
        "quantile": quantile,
        "windows": [],
    }
    for r, (rep, epsilon) in enumerate(zip(result.reports, result.epsilon.tolist())):
        doc["windows"].append(
            {"index": r, "start": r * n, "epsilon": epsilon, **dataclasses.asdict(rep)}
        )
        for name, values, label in (
            ("original", result.original[r], "original"),
            ("synthesized", result.synthesized[r], "synthesized"),
            ("prob_original", result.prob_original[r], "probability"),
            ("prob_synthesized", result.prob_synthesized[r], "probability"),
        ):
            formats.write_series_csv(
                os.path.join(args.out, f"window{r:03d}_{name}.csv"), values, label=label
            )
        print(
            f"window {r}: jaccard {rep.jaccard:.3f} rmse {rep.rmse:.4g} "
            f"prd {rep.prd:.3f}% flags {len(rep.flags_original)}/"
            f"{len(rep.flags_synthesized)}"
        )
    formats.write_json(os.path.join(args.out, "report.json"), doc)
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
