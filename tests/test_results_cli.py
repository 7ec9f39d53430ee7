"""Result serialization round trips and the command-line surface."""

import json
import os
import re

import numpy as np
import pytest

from cuelab import cli
from cuelab.cli import main, parse_cli
from cuelab.errors import CuelabError, InvalidArgumentError
from cuelab.results import (
    EstimateRow,
    ResultRecord,
    emit,
    read_record,
    to_csv_text,
    to_json_text,
)

AWKWARD = [0.1 + 0.2, 1.0 / 3.0, 1e-17, -4.9406564584124654e-324, 12345678.000000001]


def small_record():
    rows = [
        EstimateRow(label="N=8", mean=0.9625, stderr=0.0022, n=200, seed=7),
        EstimateRow(label="N=16", mean=0.9281, stderr=0.0019, n=200, seed=7),
    ]
    params = {
        "dims": [8, 16],
        "checks": [
            {"name": "baseline", "passed": True, "detail": "ok"},
            {"name": "trend", "passed": False, "detail": "dipped"},
        ],
    }
    meta = {"version": "0.1.0", "timestamp": None, "runtime_seconds": None}
    return ResultRecord(experiment="fraction", parameters=params, estimates=rows, metadata=meta)


# ---------------------------------------------------------------------------
# rows and records
# ---------------------------------------------------------------------------


def test_estimate_row_validation():
    with pytest.raises(InvalidArgumentError):
        EstimateRow(label="", mean=1.0, stderr=0.0, n=10, seed=0)
    with pytest.raises(InvalidArgumentError):
        EstimateRow(label="x", mean=1.0, stderr=-0.5, n=10, seed=0)
    with pytest.raises(InvalidArgumentError):
        EstimateRow(label="x", mean=1.0, stderr=0.0, n=-1, seed=0)


def test_record_checks_view():
    rec = small_record()
    assert rec.checks() == [("baseline", True, "ok"), ("trend", False, "dipped")]
    assert not all(passed for _, passed, _ in rec.checks())


def test_csv_has_pinned_header_and_one_row_per_estimate():
    text = to_csv_text(small_record())
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,label,mean,stderr,n,seed"
    assert len(lines) == 3
    assert lines[1].startswith("fraction,N=8,")


def test_csv_round_trip_preserves_floats_exactly():
    rows = [
        EstimateRow(label=f"case {i}", mean=x, stderr=abs(x) / 7.0, n=i + 1, seed=3)
        for i, x in enumerate(AWKWARD)
    ]
    rec = ResultRecord(
        experiment="moments", parameters={}, estimates=rows, metadata={"version": "0"}
    )
    back = read_record_from_text(to_csv_text(rec), "csv")
    for a, b in zip(rec.estimates, back.estimates):
        assert a.label == b.label
        assert a.mean == b.mean and a.stderr == b.stderr  # bit-exact through %.17g
        assert a.n == b.n and a.seed == b.seed


def read_record_from_text(text, fmt, tmpdir=None):
    import tempfile

    suffix = "." + fmt
    with tempfile.NamedTemporaryFile("w", suffix=suffix, delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        return read_record(path)
    finally:
        os.unlink(path)


def test_json_round_trip_keeps_full_record():
    rec = small_record()
    text = to_json_text(rec)
    parsed = json.loads(text)
    assert parsed["experiment"] == "fraction"
    back = read_record_from_text(text, "json")
    assert back.experiment == rec.experiment
    assert back.parameters == rec.parameters
    assert back.metadata == rec.metadata
    assert back.estimates == rec.estimates


def test_json_output_is_stable():
    # sorted keys: serializing twice gives identical bytes
    rec = small_record()
    assert to_json_text(rec) == to_json_text(rec)
    assert to_json_text(rec).endswith("\n")


def test_emit_writes_file_and_returns_text(tmp_path):
    rec = small_record()
    target = tmp_path / "out.json"
    text = emit(rec, "json", str(target))
    assert target.read_text() == text
    csv_text = emit(rec, "csv", None)  # no path: text only
    assert csv_text.startswith("experiment,")


def test_emit_wraps_os_errors(tmp_path):
    rec = small_record()
    with pytest.raises(CuelabError):
        emit(rec, "json", str(tmp_path / "missing" / "deep" / "out.json"))


def test_read_record_infers_format_from_extension(tmp_path):
    rec = small_record()
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    emit(rec, "json", str(jpath))
    emit(rec, "csv", str(cpath))
    assert read_record(str(jpath)).experiment == "fraction"
    assert read_record(str(cpath)).estimates[0].label == "N=8"


def test_read_record_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    with pytest.raises(CuelabError):
        read_record(str(bad))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parse_fraction_example():
    cfg = parse_cli(["fraction", "--dims", "8,16", "--coeffs", "1,1", "--samples", "50", "--seed", "42"])
    assert cfg.experiment == "fraction"
    assert cfg.dims == (8, 16)
    assert cfg.coefficients == (1.0, 1.0)
    assert cfg.n_matrices == 2
    assert cfg.samples == 50
    assert cfg.seed == 42
    assert cfg.format == "csv"


# Per subcommand: the options its runner reads besides --seed, --format
# and --out, and its default dims and samples (selftest echoes its samples
# default but reads no --samples).
SUBCOMMANDS = {
    "fraction": ("--dims --samples --coeffs", (8, 16), 200),
    "moments": ("--dims --samples", (8,), 20000),
    "traces": ("--dims --samples", (8,), 20000),
    "clt": ("--dims --samples", (64,), 10000),
    "tails": ("--dims --samples", (128,), 2000),
    "oscillation": ("--dims --samples", (64,), 2000),
    "gaps": ("--dims --samples", (32,), 2000),
    "carrier": ("--dims --samples --coeffs --delta --subdivisions", (64,), 50),
    "selftest": ("", (8,), 50),
}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_takes_only_the_options_its_runner_reads(command, capsys):
    assert set(SUBCOMMANDS) == set(cli._RUNNERS)
    own, dims, samples = SUBCOMMANDS[command]
    with pytest.raises(SystemExit) as err:
        parse_cli([command, "--help"])
    assert err.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {"--help", *own.split(), "--seed", "--format", "--out"}
    cfg = parse_cli([command])
    assert (cfg.dims, cfg.samples, cfg.seed) == (dims, samples, 0)
    assert (cfg.delta, cfg.subdivisions, cfg.format, cfg.out) == (None, None, "csv", None)
    if "--coeffs" in own:
        assert cfg.coefficients == (1.0, 1.0)


def test_parse_output_options(tmp_path):
    out = str(tmp_path / "x.json")
    cfg = parse_cli(["gaps", "--format", "json", "--out", out])
    assert cfg.format == "json"
    assert cfg.out == out
    # parallelism is an environment concern, not a flag
    assert cfg.workers is None


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["frobnicate"],  # unknown subcommand
        ["fraction", "--dims", "8,x"],  # malformed dimension list
        ["fraction", "--dims", "0"],  # dimensions must be positive
        ["fraction", "--coeffs", "1,0"],  # zero coefficient
        # no such option: --coeffs alone gives the number of matrices
        ["fraction", "--coeffs", "1,1", "--n-matrices", "3"],
        ["moments", "--samples", "1"],  # too few samples
        # an option the subcommand's runner does not read
        ["moments", "--dims", "4", "--samples", "10", "--coeffs", "1,2"],
        ["selftest", "--dims", "8,16", "--coeffs", "3", "--grid-factor", "2", "--delta", "0.1"],
        ["selftest", "--samples", "20"],
        ["gaps", "--grid-factor", "4"],
        ["fraction", "--delta", "0.1"],
        # the sign scan's grid is fixed
        ["fraction", "--grid-factor", "8"],
        ["carrier", "--grid-factor", "8"],
    ],
)
def test_usage_errors_exit_with_code_2(argv):
    with pytest.raises(SystemExit) as err:
        parse_cli(argv)
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# the main entry point
# ---------------------------------------------------------------------------


def test_one_parser_serves_every_parse():
    # the parser is built once per process; a sequence of subcommands with a
    # usage error in the middle parses as fresh parsers do
    sequence = [
        ["fraction", "--dims", "8,16", "--coeffs", "1,-1", "--samples", "30"],
        ["carrier", "--delta", "0.1", "--subdivisions", "4", "--seed", "5"],
        ["moments", "--dims", "8", "--format", "csv"],
        ["gaps", "--coeffs", "1,1"],
        ["selftest"],
        ["fraction", "--grid-factor", "4"],
        ["clt", "--dims", "64,256", "--samples", "1500"],
    ]

    def parse(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        try:
            return parse_cli(argv)
        except SystemExit as exc:
            return exc.code

    reused = [parse(argv, fresh=False) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = [parse(argv, fresh=True) for argv in sequence]
    assert reused[3] == 2
    assert reused == fresh


def test_main_selftest_green(capsys):
    code = main(["selftest", "--seed", "11"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out.startswith("experiment,")  # record lands on stdout
    assert "PASS" in err
    assert "FAIL" not in err


def test_main_writes_file_and_reports_checks(tmp_path, capsys):
    target = tmp_path / "gaps.json"
    code = main(
        ["gaps", "--dims", "8", "--samples", "24", "--seed", "3", "--format", "json", "--out", str(target)]
    )
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert str(target) in err
    rec = read_record(str(target))
    assert rec.experiment == "gaps"
    assert all(passed for _, passed, _ in rec.checks())


def test_main_exit_one_when_a_check_fails(capsys):
    # at these sizes the measured fraction means are far enough apart that
    # the monotone-trend checks fail; the exit code must say so
    code = main(["fraction", "--dims", "8,16", "--coeffs", "1,1", "--samples", "150", "--seed", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "FAIL" in err
    assert "PASS" in err  # the per-dimension audits still hold


def test_main_maps_linalg_error_to_exit_one(monkeypatch, capsys):
    def fails_to_converge(cfg):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setitem(cli._RUNNERS, "selftest", fails_to_converge)
    assert main(["selftest"]) == 1
    _, err = capsys.readouterr()
    assert "error: Eigenvalues did not converge" in err


def test_main_same_seed_same_bytes_any_worker_count(tmp_path, monkeypatch):
    argv = ["gaps", "--dims", "8", "--samples", "600", "--seed", "3", "--format", "json"]
    paths = []
    for workers, name in [("1", "a.json"), ("2", "b.json")]:
        monkeypatch.setenv("CUELAB_WORKERS", workers)
        target = tmp_path / name
        assert main(argv + ["--out", str(target)]) == 0
        paths.append(target)
    assert paths[0].read_bytes() == paths[1].read_bytes()
