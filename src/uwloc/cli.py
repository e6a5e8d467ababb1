"""Command-line front end.

Subcommands:
  simulate      forward-simulate observations for one source
  gen-data      sample a labelled observation dataset
  train         fit the learned localizer on a dataset
  localize      run a localizer over stored observations
  bound         evaluate the sample-based bound from error files
  estimate-csd  k-NN divergence between two sample files
  experiment    full SNR sweep producing curve.csv / curve.dat / report.txt

Exit codes: 0 success, 2 configuration problems, 3 numerical or condition
failures, 4 file I/O problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, csd, harness, localize
from . import signal as signal_mod
from .errors import (
    ConfigError,
    EstimationError,
    StageError,
    StructureError,
    TrainingError,
    finite,
)

_NUMERIC_ERRORS = (StageError, EstimationError, TrainingError, StructureError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwloc",
        description="Direct localization under environment mismatch: "
        "simulation, bounds, and estimators.",
    )
    parser.add_argument("--version", action="version", version=f"uwloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=False, seed=True):
        p.add_argument("--config", required=True, help="experiment config JSON")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config master seed")
        p.add_argument("--out", default=None, required=needs_out,
                       help="output directory")

    p = sub.add_parser("simulate", help="forward-simulate observations")
    common(p)
    p.add_argument("--count", type=int, default=16, help="observation count")
    p.add_argument("--snr-db", type=float, default=10.0, help="target SNR in dB")
    p.add_argument("--env", choices=("q", "p"), default="q",
                   help="simulate under the presumed (q) or actual (p) environment")

    p = sub.add_parser("gen-data", help="sample a labelled dataset")
    common(p, needs_out=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--snr-db", type=float, default=16.0)

    p = sub.add_parser("train", help="train the learned localizer")
    common(p, needs_out=True)
    p.add_argument("--data", default=None,
                   help="gen-data directory; omitted = draw per config.net")

    p = sub.add_parser("localize", help="localize stored observations")
    common(p, needs_out=True, seed=False)
    p.add_argument("--data", required=True,
                   help="directory holding observations.bin and meta.json")
    p.add_argument("--method", choices=("ml", "net"), default="ml")
    p.add_argument("--model", default=None, help="model file for --method net")

    p = sub.add_parser("bound", help="sample-based bound from error files")
    common(p, seed=False)
    p.add_argument("--errors-q", required=True, help="CSV of presumed-model errors")
    p.add_argument("--errors-p", required=True, help="CSV of actual-model errors")
    p.add_argument("--k", type=int, default=None, help="neighbor order override")
    p.add_argument("--delta2", type=float, default=None,
                   help="closed-form divergence for the weak bound")

    p = sub.add_parser("estimate-csd", help="k-NN divergence between sample files")
    p.add_argument("--samples-p", required=True)
    p.add_argument("--samples-q", required=True)
    p.add_argument("--k", type=int, default=csd.DEFAULT_K)
    p.add_argument("--out", default=None)

    p = sub.add_parser("experiment", help="full SNR sweep")
    common(p)
    p.add_argument("--workers", type=int, default=1,
                   help="N > 1 forks N processes for the trials, 1 runs them on "
                        "threads; results do not depend on this")

    return parser


def _load_config(args) -> harness.ExperimentConfig:
    """The --config file, its master seed replaced by --seed if given."""
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=int(args.seed))
    return config


def _cmd_simulate(args) -> int:
    snr_db = finite(args.snr_db, "--snr-db")
    config = _load_config(args)
    out = Path(args.out or "simulate-out")
    source = harness.simulate(config, args.count, snr_db, args.env, out)
    print(f"simulated {args.count} observations at {args.snr_db:+.1f} dB "
          f"from source {np.round(source, 2).tolist()} -> {out}")
    return 0


def _cmd_gen_data(args) -> int:
    snr_db = finite(args.snr_db, "--snr-db")
    config = _load_config(args)
    paths = harness.generate_dataset(config, args.count, snr_db, args.out)
    print(f"wrote {args.count} labelled observations -> {paths['observations']}")
    return 0


def _load_dataset(data_dir):
    """(values, labels or None, noise_power, attenuation) of a data directory.

    A meta.json that is not JSON or lacks a finite, positive noise_power
    or attenuation, or a labels.csv that does not hold one numeric x,y,z
    row per observation, raises ConfigError.
    """
    data = Path(data_dir)
    values, _ = signal_mod.load_observations(data / "observations.bin")
    meta_path = data / "meta.json"
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        noise_power, attenuation = (
            float(meta[key]) for key in ("noise_power", "attenuation")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"{meta_path} needs numeric 'noise_power' and 'attenuation': {exc!r}"
        ) from exc
    if not all(math.isfinite(v) and v > 0 for v in (noise_power, attenuation)):
        raise ConfigError(
            f"{meta_path} needs finite, positive 'noise_power' and 'attenuation', "
            f"got {noise_power!r} and {attenuation!r}"
        )
    labels = None
    labels_path = data / "labels.csv"
    if labels_path.exists():
        try:
            labels = np.loadtxt(labels_path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"{labels_path} is not numeric: {exc}") from exc
        if labels.shape != (values.shape[0], 3):
            raise ConfigError(
                f"{labels_path} holds {labels.shape[0]} rows of "
                f"{labels.shape[1]} values, expected {values.shape[0]} x,y,z rows"
            )
    return values, labels, noise_power, attenuation


def _cmd_train(args) -> int:
    config = _load_config(args)
    if args.data is not None:
        values, labels, _, attenuation = _load_dataset(args.data)
        if labels is None:
            raise ConfigError(f"{args.data} has no labels.csv to train on")
        training = localize.TrainingSet(
            localize.extract_features(values, attenuation), labels
        )
    else:
        _, attenuation = harness.derive_scene(config)
        training = harness.build_training_set(config, attenuation)
    model, loss_curve = harness.train_model(config, training)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    localize.save_model(out / "model.uwnet", model)
    with open(out / "loss.csv", "w", encoding="utf-8") as handle:
        handle.write("epoch,loss\n")
        for epoch, loss in enumerate(loss_curve):
            handle.write(f"{epoch},{loss!r}\n")
    print(f"trained on {training.count} examples, final loss "
          f"{loss_curve[-1]:.4g} -> {out / 'model.uwnet'}")
    return 0


def _cmd_localize(args) -> int:
    config = harness.load_config(args.config)
    values, labels, noise_power, attenuation = _load_dataset(args.data)
    if args.method == "net":
        if args.model is None:
            raise ConfigError("--method net needs --model")
        model = localize.load_model(args.model)
        features = localize.extract_features(values, attenuation)
        width = model.layer_sizes()[0]
        if features.shape[1] != width:
            raise ConfigError(
                f"{args.data} gives {features.shape[1]} features per observation, "
                f"model {args.model} takes {width}"
            )
        estimates = model.predict(features)
    else:
        expected = (config.geometry.receivers.shape[0], config.n_bins)
        if values.shape[1:] != expected:
            raise ConfigError(
                f"{args.data} holds {values.shape[1]} receivers x {values.shape[2]} "
                f"bins, the config {expected[0]} x {expected[1]}"
            )
        evaluator = harness.grid_evaluator(config)
        estimates = evaluator.locate(values, harness.SIGNAL_POWER, noise_power)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    est_path = out / "estimates.csv"
    harness.write_positions(est_path, estimates)
    message = f"localized {estimates.shape[0]} observations -> {est_path}"
    if labels is not None:
        rmse = float(np.sqrt(np.mean(np.sum((estimates - labels) ** 2, axis=1))))
        message += f" (rmse {rmse:.3g} m)"
    print(message)
    return 0


def _print_json(payload: dict, out_dir, name: str) -> None:
    """Print payload as JSON and, with out_dir, write it to out_dir/name."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / name, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_bound(args) -> int:
    if args.delta2 is not None and not args.delta2 >= 0:
        raise ConfigError(
            f"--delta2 must be >= 0 (inf for a vacuous bound), got {args.delta2}"
        )
    config = harness.load_config(args.config)
    errors_q = csd.load_samples(args.errors_q)
    errors_p = csd.load_samples(args.errors_p)
    k = args.k if args.k is not None else config.csd_k
    evaluation = bounds.strong_bound(errors_q, errors_p, k_nn=k)
    weak = None
    if args.delta2 is not None:
        weak = bounds.weak_bound(evaluation.mse_q, evaluation.var_q, args.delta2)
    payload = {
        "mse_q": evaluation.mse_q,
        "mse_p": evaluation.mse_p,
        "var_q": evaluation.var_q,
        "csd_error": evaluation.csd_error,
        "strong_bound_mse": evaluation.strong_bound,
        "strong_bound_rmse": float(np.sqrt(evaluation.strong_bound)),
        "weak_bound_mse": weak,
        "excluded_points": evaluation.excluded_points,
        "k": k,
    }
    _print_json(payload, args.out, "bound.json")
    return 0


def _cmd_estimate_csd(args) -> int:
    samples_p = csd.load_samples(args.samples_p)
    samples_q = csd.load_samples(args.samples_q)
    estimate = csd.estimate_csd(samples_p, samples_q, k=args.k)
    _print_json(dataclasses.asdict(estimate), args.out, "csd.json")
    return 0


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    config = _load_config(args)
    result = harness.run_experiment(
        config, workers=args.workers, progress=lambda s: print(s, flush=True)
    )
    out = args.out or "experiment-out"
    paths = harness.emit_outputs(result, out)
    print(f"wrote {paths['curve_csv']}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "localize": _cmd_localize,
    "bound": _cmd_bound,
    "estimate-csd": _cmd_estimate_csd,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
