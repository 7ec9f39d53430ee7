"""Command-line front end: one subcommand per experiment.

The record itself goes to --out (or stdout when no path is given); the
per-check PASS/FAIL summary goes to stderr.  The exit code is 0 exactly
when every check of the run passed.
"""

from __future__ import annotations

import argparse
import sys

from numpy.linalg import LinAlgError

from .errors import CuelabError, InvalidConfigError
from .experiments import _RUNNERS, ExperimentConfig
from .results import emit

__all__ = ["parse_cli", "main"]

_HELP = {
    "fraction": "mean fraction of combination zeros on the unit circle",
    "moments": "joint moment formula of log Z(0) vs Monte Carlo",
    "traces": "trace covariance formula and sampler cross-check",
    "clt": "KS distance of normalized log|Z| from the standard normal",
    "tails": "tail and concentration probabilities of log Z",
    "oscillation": "second moment of log Z increments vs the exact series",
    "gaps": "narrow eigenangle gap counts vs bound and quadrature",
    "carrier": "carrier-wave diagnostics and the per-sample lower bound",
    "selftest": "fast battery of exact identities",
}

_DEFAULTS = {
    "fraction": {"dims": (8, 16), "samples": 200, "coeffs": (1.0, 1.0)},
    "moments": {"dims": (8,), "samples": 20000, "coeffs": (1.0,)},
    "traces": {"dims": (8,), "samples": 20000, "coeffs": (1.0,)},
    "clt": {"dims": (64,), "samples": 10000, "coeffs": (1.0,)},
    "tails": {"dims": (128,), "samples": 2000, "coeffs": (1.0,)},
    "oscillation": {"dims": (64,), "samples": 2000, "coeffs": (1.0,)},
    "gaps": {"dims": (32,), "samples": 2000, "coeffs": (1.0,)},
    "carrier": {"dims": (64,), "samples": 50, "coeffs": (1.0, 1.0)},
    "selftest": {"dims": (8,), "samples": 50, "coeffs": (1.0,)},
}


def _dims_argument(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}") from None
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError(f"dims must be positive, got {text!r}")
    return dims


def _coeffs_argument(text: str) -> tuple:
    try:
        coeffs = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"coefficients must be numbers, got {text!r}") from None
    if not coeffs:
        raise argparse.ArgumentTypeError("at least one coefficient is required")
    if any(b == 0.0 for b in coeffs):
        raise argparse.ArgumentTypeError("coefficients must be nonzero")
    return coeffs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuelab",
        description="Monte Carlo laboratory for zeros of random "
        "characteristic-polynomial combinations on the unit circle.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, runner_defaults in _DEFAULTS.items():
        sub = commands.add_parser(name, help=_HELP[name])
        sub.add_argument("--dims", type=_dims_argument, default=runner_defaults["dims"],
                         help="comma-separated matrix sizes")
        sub.add_argument("--coeffs", type=_coeffs_argument, default=None,
                         help="comma-separated nonzero combination coefficients")
        sub.add_argument("--n-matrices", type=int, default=None,
                         help="number of matrices (must match --coeffs when both given)")
        sub.add_argument("--samples", type=int, default=runner_defaults["samples"],
                         help="Monte Carlo samples per N")
        sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
        sub.add_argument("--grid-factor", type=int, default=8,
                         help="sign-scan nodes per unit dimension")
        sub.add_argument("--delta", type=float, default=None,
                         help="exceptional-set parameter in (0, 1/4)")
        sub.add_argument("--subdivisions", type=int, default=None,
                         help="number K of circle subintervals")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output serialization")
        sub.add_argument("--out", default=None, help="output file path")
    return parser


def parse_cli(argv) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a subcommand is required")
    if args.coeffs is None:
        # --n-matrices alone means "n unit coefficients".
        if args.n_matrices is not None:
            args.coeffs = (1.0,) * args.n_matrices
        else:
            args.coeffs = _DEFAULTS[args.command]["coeffs"]
    elif args.n_matrices is not None and args.n_matrices != len(args.coeffs):
        parser.error(
            f"--n-matrices {args.n_matrices} disagrees with "
            f"{len(args.coeffs)} coefficients"
        )
    try:
        return ExperimentConfig(
            experiment=args.command,
            dims=args.dims,
            coefficients=args.coeffs,
            samples=args.samples,
            seed=args.seed,
            grid_factor=args.grid_factor,
            delta=args.delta,
            subdivisions=args.subdivisions,
            format=args.format,
            out=args.out,
        )
    except InvalidConfigError as exc:
        parser.error(str(exc))


def main(argv=None) -> int:
    """Run one experiment; exit 0 iff all of its checks passed."""
    cfg = parse_cli(sys.argv[1:] if argv is None else argv)
    runner = _RUNNERS[cfg.experiment]
    try:
        record = runner(cfg)
        text = emit(record, format=cfg.format, path=cfg.out)
    except (CuelabError, LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {cfg.out}", file=sys.stderr)
    failures = 0
    for name, passed, detail in record.checks():
        tag = "PASS" if passed else "FAIL"
        suffix = f": {detail}" if detail else ""
        print(f"{tag} {name}{suffix}", file=sys.stderr)
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
