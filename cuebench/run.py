"""Benchmark of the cuelab CLI: end-to-end timings, per-layer trace, checks.

    python3 cuebench/run.py --workload {zeros,logz,pooled} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; cuelab is imported from the
checkout's ``src``.  A run makes whole timed rounds until ``--seconds``
have passed.  Every round runs the same CLI commands with ``--seed`` as
their seed (plus, on ``zeros``, audits of fixed ensembles).  After the
rounds it reaps every child process, checks every record against the
references in ``reference.py``, times cold starts of a fresh interpreter,
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics (end to end with ``--trace 0``, per layer with ``--trace 1``).
"""

from __future__ import annotations

import os

# One BLAS thread per process, so that the `pooled` workers (two) stay
# within the machine's two cores and every record is bit-reproducible.
# This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".cuebench"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import tracer as tracing  # noqa: E402

WORKERS_ENV = "CUELAB_WORKERS"
SETUP_REPEATS = 3
# The zeros audit ensembles are the same for every --seed: the root-oracle
# audit fails on each of them every time, so the failed share of a run does
# not depend on the seed or on the number of rounds.
AUDIT_BANK_SEEDS = tuple(range(8))
AUDIT_DIM = 64
AUDITS_PER_ROUND = 2
# QR-drawn reference ensembles per N for the zeros means.
REFERENCE_ENSEMBLES = {16: 400, 64: 120}
Z_LIMIT = 4.0

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
# Layers whose work a pooled run does inside its spawn workers.
WORKER_LAYERS = ("rng", "sampling", "spectra", "ensembles", "carrier")


@dataclass(frozen=True)
class Workload:
    commands: tuple
    workers: int = 1
    audits: int = 0


WORKLOADS = {
    "zeros": Workload(
        commands=(
            ("fraction", "--dims", "16", "--coeffs", "1,-1", "--samples", "80"),
            ("fraction", "--dims", "64", "--coeffs", "1,1", "--samples", "12"),
            ("carrier", "--dims", "64", "--coeffs", "1,2,3", "--samples", "4"),
        ),
        audits=AUDITS_PER_ROUND,
    ),
    "logz": Workload(
        commands=(
            ("moments", "--dims", "8", "--samples", "8000"),
            ("clt", "--dims", "64,256", "--samples", "1500"),
            ("oscillation", "--dims", "64", "--samples", "600"),
            ("tails", "--dims", "128", "--samples", "30"),
        ),
    ),
    "pooled": Workload(
        commands=(
            ("moments", "--dims", "2,3,4,5", "--samples", "5000"),
            ("gaps", "--dims", "32", "--samples", "3000"),
        ),
        workers=2,
    ),
}

# A fresh interpreter imports the CLI and completes the smallest real run.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import cuelab.cli
t1 = time.perf_counter()
rc = cuelab.cli.main(["selftest", "--out", sys.argv[1]])
print(json.dumps({"import_s": t1 - t0, "rc": rc}))
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_cuelab():
    """Import cuelab from the checkout's src, never from elsewhere."""
    if not (SRC / "cuelab" / "cli.py").is_file():
        raise BenchError(f"no cuelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuelab
    import cuelab.cli

    if Path(cuelab.__file__).resolve().parent != SRC / "cuelab":
        raise BenchError(f"imported cuelab from {cuelab.__file__}, not from {SRC}")
    return cuelab


@dataclass
class Audit:
    """One fixed ensemble for the zeros audits, with its FFT reference."""

    ensemble: object
    fft_count: int
    degree: int


@dataclass
class Tally:
    """Operations attempted and failed, and what was wrong with the rest."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def audit_bank(cuelab) -> list:
    coeffs = np.array([1.0, 1.0])
    bank = []
    for seed in AUDIT_BANK_SEEDS:
        gen = np.random.default_rng([20130221, seed])
        angles = [reference.su_spectrum(AUDIT_DIM, gen) for _ in coeffs]
        count, degree = reference.circle_zero_count(coeffs, angles)
        spectra = [cuelab.spectra.EigenangleSpectrum.from_angles(a) for a in angles]
        bank.append(Audit(cuelab.ensembles.CombinationEnsemble(coeffs, spectra), count, degree))
    return bank


def call_cli(cuelab, argv, path: Path):
    """Run one CLI command in process; returns (exit code, stderr text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cuelab.cli.main([*argv, "--format", "json", "--out", str(path)])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught error fails the operation
        return -1, f"{err.getvalue()}error: {type(exc).__name__}: {exc}"
    return rc, err.getvalue()


class Runner:
    """Runs the rounds of one workload and keeps what the checks need."""

    def __init__(self, cuelab, name: str, seed: int):
        self.cuelab = cuelab
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tally = Tally()
        self.bank = audit_bank(cuelab) if self.workload.audits else []
        self.records = {}  # command index -> bytes of the first record
        self.audits = []  # (bank index, sign changes, oracle circle count)
        self.rounds = 0

    def paths(self):
        return [OUT / f"{self.name}-{i}.json" for i in range(len(self.workload.commands))]

    def run_round(self, workers: int, span=None) -> float:
        """One whole round; returns its wall time in seconds."""
        span = span or (lambda name: contextlib.nullcontext())
        cuelab = self.cuelab
        os.environ[WORKERS_ENV] = str(workers)
        paths = self.paths()
        for path in paths:
            path.unlink(missing_ok=True)
        outcomes = []
        audits = []
        first = self.rounds * self.workload.audits
        picks = [(first + k) % len(self.bank) for k in range(self.workload.audits)]
        start = time.perf_counter()
        for argv, path in zip(self.workload.commands, paths):
            with span(f"cli.{argv[0]}"):
                rc, err = call_cli(cuelab, [*argv, "--seed", str(self.seed)], path)
            loaded = None
            if rc in (0, 1) and path.is_file():
                loaded = cuelab.results.read_record(str(path))
            outcomes.append((rc, err, loaded))
        for pick in picks:
            ens = self.bank[pick].ensemble
            with span("bench.audit"):
                changes = cuelab.ensembles.sign_changes(ens)
                oracle = cuelab.ensembles.circle_root_count(cuelab.ensembles.roots_oracle(ens))
            audits.append((pick, changes, oracle))
        elapsed = time.perf_counter() - start
        os.environ.pop(WORKERS_ENV, None)
        self.rounds += 1
        self._account(outcomes, paths, audits)
        return elapsed

    def _account(self, outcomes, paths, audits) -> None:
        tally = self.tally
        for i, ((rc, err, loaded), path) in enumerate(zip(outcomes, paths)):
            tally.attempted += 1
            label = " ".join(self.workload.commands[i])
            if rc not in (0, 1) or loaded is None or "\nerror:" in "\n" + err:
                tally.failures.append(f"{label}: exit {rc}: {err.strip()[-300:]}")
                continue
            data = path.read_bytes()
            if self.records.setdefault(i, data) != data:
                tally.problems.append(f"{label}: record differs between rounds")
            written = [(e["label"], e["mean"]) for e in json.loads(data)["estimates"]]
            if [(e.label, e.mean) for e in loaded.estimates] != written:
                tally.problems.append(f"{label}: read_record does not return the written rows")
        for pick, changes, oracle in audits:
            tally.attempted += 1
            self.audits.append((pick, changes, oracle))
            if oracle != self.bank[pick].fft_count:
                tally.failures.append(
                    f"roots_oracle audit, bank ensemble {pick}: {oracle} circle roots, "
                    f"FFT count {self.bank[pick].fft_count}"
                )


# --------------------------------------------------------------------------
# checks against the references


def z_score(mean: float, ref: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if mean == ref else math.inf
    return (mean - ref) / se


def rows(payload) -> dict:
    return {row["label"]: row for row in payload["estimates"]}


def fft_reference(seed: int, tag: int, dim: int, coeffs, count: int):
    """Mean and sd of the FFT zero count over seeded QR-drawn ensembles."""
    gen = np.random.default_rng([seed, tag])
    counts = np.array(
        [
            reference.circle_zero_count(
                coeffs, [reference.su_spectrum(dim, gen) for _ in coeffs]
            )[0]
            for _ in range(count)
        ],
        dtype=float,
    )
    return float(counts.mean()), float(counts.std(ddof=1))


def check_record(index: int, argv, payload, seed: int, problems: list) -> None:
    """The benchmark's own checks of the record of command `index`."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    dims = [int(d) for d in opts["--dims"].split(",")]
    label = " ".join(argv)

    def expect(ok: bool, what: str):
        if not ok:
            problems.append(f"{label}: {what}")

    for check in payload["parameters"].get("checks", []):
        expect(check["passed"], f"record check failed: {check['name']} ({check['detail']})")
    table = rows(payload)
    if command in ("fraction", "carrier"):
        coeffs = [float(b) for b in opts["--coeffs"].split(",")]
        dim = dims[0]
        ref_n = REFERENCE_ENSEMBLES[dim]
        mean, sd = fft_reference(seed, index, dim, coeffs, ref_n)
        row = table[f"N={dim}"] if command == "fraction" else table["measured sign changes"]
        scale = 1.0 / dim if command == "fraction" else 1.0
        z = z_score(row["mean"], mean * scale, sd * scale * math.sqrt(1 / row["n"] + 1 / ref_n))
        expect(abs(z) <= Z_LIMIT, f"mean {row['mean']:.4f} vs FFT reference "
               f"{mean * scale:.4f}: z={z:.2f}")
    elif command == "moments":
        for dim in dims:
            for s in (1.0, 2.0):
                row = table[f"s={s:g},t=0,N={dim} empirical"]
                ref = reference.keating_snaith(s, dim)
                var = reference.keating_snaith(2 * s, dim) - ref * ref
                z = z_score(row["mean"], ref, math.sqrt(var / row["n"]))
                expect(abs(z) <= Z_LIMIT, f"s={s:g} N={dim} mean {row['mean']:.5g} vs "
                       f"Keating-Snaith {ref:.5g}: z={z:.2f}")
    elif command == "oscillation":
        mu = payload["parameters"]["mu"]
        for dim in dims:
            ref, tail = reference.increment_second_moment(dim, mu / dim)
            for part in ("re", "im"):
                row = table[f"{part} increment second moment N={dim} mu={mu:g}"]
                z = z_score(row["mean"], ref, row["stderr"] + tail)
                expect(abs(z) <= Z_LIMIT, f"{part} N={dim} second moment {row['mean']:.4f} "
                       f"vs series {ref:.4f}: z={z:.2f}")
    elif command == "gaps":
        for eps in payload["parameters"]["eps_grid"]:
            row = table[f"eps={eps:g} empirical"]
            ref = reference.pair_count(dims[0], eps)
            # A Poisson floor keeps a sample with few pairs from shrinking
            # the error bar to nothing.
            se = math.sqrt(max(row["stderr"] ** 2, ref / row["n"]))
            z = z_score(row["mean"], ref, se)
            expect(abs(z) <= Z_LIMIT, f"eps={eps:g} mean {row['mean']:.5f} vs "
                   f"quadrature {ref:.5f}: z={z:.2f}")


def check_runner(run: Runner, inprocess: dict | None) -> list:
    problems = list(run.tally.problems)
    for i, argv in enumerate(run.workload.commands):
        if i not in run.records:
            continue
        check_record(i, argv, json.loads(run.records[i]), run.seed, problems)
        if inprocess is not None and inprocess.get(i) != run.records[i]:
            problems.append(f"{' '.join(argv)}: pooled record differs from the in-process one")
    for pick, changes, _ in run.audits:
        audit = run.bank[pick]
        if changes > audit.fft_count or (changes - audit.degree) % 2:
            problems.append(
                f"sign_changes on bank ensemble {pick}: {changes} changes, FFT count "
                f"{audit.fft_count}, effective degree {audit.degree}"
            )
    return problems


# --------------------------------------------------------------------------
# processes, memory and cold starts


def child_pids() -> list:
    """Live children of this process, read from /proc."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2 :].split()
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_children(deadline_s: float = 10.0) -> list:
    """Stop the multiprocessing resource tracker and wait for every child.

    Returns the pids that had to be killed.  Spawn pools start the tracker
    on first use, and it otherwise lives as long as this process.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    killed = []
    end = time.monotonic() + deadline_s
    while True:
        pids = child_pids()
        for pid in pids:
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        pids = child_pids()
        if not pids:
            return killed
        if time.monotonic() > end:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, 9)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                killed.append(pid)
            return killed
        time.sleep(0.05)


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus, with a pool, `workers` times the
    largest peak of a reaped child (the pool workers run side by side)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * children) / 1024.0


def cold_starts(repeats: int, problems: list):
    """Wall times and import times of fresh interpreters running selftest."""
    env = dict(os.environ)
    env.pop(WORKERS_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    walls, imports = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(OUT / "setup.csv")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        try:
            report = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {"rc": done.returncode}
        if done.returncode != 0 or report["rc"] != 0:
            problems.append(f"cold start: selftest failed: {done.stderr.strip()[-300:]}")
        if "import_s" in report:
            imports.append(report["import_s"])
    return walls, imports or walls


# --------------------------------------------------------------------------
# entry point


def one_round(run: Runner, workers: int, tracer=None):
    """(wall time, per-layer figures or None) of one round."""
    if tracer is None:
        return run.run_round(workers), None
    mark = len(tracer.spans)
    elapsed = run.run_round(workers, tracer.span)
    return elapsed, tracing.layer_metrics(tracer.spans[mark:])


def measure(run: Runner, seconds: float, tracer=None):
    """Whole rounds until `seconds` have passed: (times, per-layer figures)."""
    times, layers = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        elapsed, figures = one_round(run, run.workload.workers, tracer)
        times.append(elapsed)
        layers.append(figures)
    return times, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        cuelab = load_cuelab()
    except BenchError as exc:
        print(f"cuebench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    run = Runner(cuelab, args.workload, args.seed)
    workers = run.workload.workers
    tracer = tracing.Tracer() if args.trace else None
    metrics = {}
    if tracer is None:
        times, _ = measure(run, args.seconds)
        print("cuebench: round times " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
        metrics["round_s"] = statistics.median(times)
        metrics["peak_rss_mb"] = peak_rss_mb(workers)
    else:
        untraced, _ = measure(run, args.seconds / 2)
        with tracer.installed(cuelab):
            traced, layers = measure(run, args.seconds / 2, tracer)
        for name in layers[0]:
            metrics[name] = statistics.fmean(r[name] for r in layers)
        metrics["trace.round_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    killed = reap_children()
    inprocess = None
    if workers > 1:
        # The same commands in process: their records must equal the pooled
        # ones byte for byte.  Traced, this round also measures the layers
        # that run inside the pool workers, which the tracer cannot reach.
        pooled, run.records = run.records, {}
        with tracer.installed(cuelab) if tracer else contextlib.nullcontext():
            _, inside = one_round(run, 1, tracer)
        if inside is not None:
            metrics.update({k: v for k, v in inside.items() if k.split(".")[0] in WORKER_LAYERS})
        inprocess, run.records = run.records, pooled
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
    problems = check_runner(run, inprocess)
    if killed:
        problems.append(f"had to kill leftover child processes {killed}")
    walls, imports = cold_starts(SETUP_REPEATS, problems)
    if args.trace:
        metrics["cli.import_s"] = statistics.median(imports)
        units = tracing.PER_LAYER
    else:
        metrics["setup_s"] = statistics.median(walls)
        units = END_TO_END

    for line in sorted(set(run.tally.failures)):
        print(f"cuebench: failed: {line}", file=sys.stderr)
    for line in problems:
        print(f"cuebench: wrong: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": run.tally.attempted,
        "failed": len(run.tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
