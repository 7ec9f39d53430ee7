"""Command-line front end: one subcommand per experiment.

The record itself goes to --out (or stdout when no path is given); the
per-check PASS/FAIL summary goes to stderr.  The exit code is 0 exactly
when every check of the run passed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from numpy.linalg import LinAlgError

from .errors import CuelabError, InvalidConfigError
from .experiments import _RUNNERS, ExperimentConfig
from .results import emit

__all__ = ["parse_cli", "main"]

def _comma_list(kind):
    """An argparse type: comma-separated ``kind`` values, as a tuple."""

    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(",") if part.strip() != "")

    parse.__name__ = f"comma-separated {kind.__name__}"  # named in argparse's error
    return parse


_OPTIONS = {
    "--dims": dict(type=_comma_list(int), help="comma-separated matrix sizes"),
    "--coeffs": dict(type=_comma_list(float), dest="coefficients", metavar="COEFFS",
                     help="comma-separated nonzero combination coefficients"),
    "--delta": dict(type=float, help="exceptional-set parameter in (0, 1/4)"),
    "--subdivisions": dict(type=int, help="number K of circle subintervals"),
    "--samples": dict(type=int, help="Monte Carlo samples per N"),
    "--seed": dict(type=int, help="base RNG seed"),
    "--format": dict(choices=("csv", "json"), help="output serialization"),
    "--out": dict(help="output file path"),
}
_SHARED = ("--seed", "--format", "--out")
_SAMPLED = ("--dims", "--samples")
_COMBINATION = (*_SAMPLED, "--coeffs")

# Per subcommand: its help line, its own defaults, and the options its
# runner reads besides _SHARED.  Every other default is ExperimentConfig's:
# an option left off the command line is not passed on.  selftest's fixed
# battery reads no --samples; its default is only echoed in the record.
_COMMANDS = {
    "fraction": ("mean fraction of combination zeros on the unit circle",
                 {"dims": (8, 16), "samples": 200}, _COMBINATION),
    "moments": ("joint moment formula of log Z(0) vs Monte Carlo",
                {"dims": (8,), "samples": 20000}, _SAMPLED),
    "traces": ("trace covariance formula and sampler cross-check",
               {"dims": (8,), "samples": 20000}, _SAMPLED),
    "clt": ("KS distance of normalized log|Z| from the standard normal",
            {"dims": (64,), "samples": 10000}, _SAMPLED),
    "tails": ("tail and concentration probabilities of log Z",
              {"dims": (128,), "samples": 2000}, _SAMPLED),
    "oscillation": ("second moment of log Z increments vs the exact series",
                    {"dims": (64,), "samples": 2000}, _SAMPLED),
    "gaps": ("narrow eigenangle gap counts vs bound and quadrature",
             {"dims": (32,), "samples": 2000}, _SAMPLED),
    "carrier": ("carrier-wave diagnostics and the per-sample lower bound",
                {"dims": (64,), "samples": 50}, (*_COMBINATION, "--delta", "--subdivisions")),
    "selftest": ("fast battery of identities and two-route checks", {"samples": 50}, ()),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cuelab",
        description="Monte Carlo laboratory for zeros of random "
        "characteristic-polynomial combinations on the unit circle.",
    )
    commands = parser.add_subparsers(dest="command", metavar="command")
    for name, (text, defaults, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag in (*options, *_SHARED):
            sub.add_argument(flag, **_OPTIONS[flag])
        sub.set_defaults(**defaults)
    return parser


def parse_cli(argv) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    if command is None:
        parser.error("a subcommand is required")
    try:
        return ExperimentConfig(experiment=command, **args)
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
