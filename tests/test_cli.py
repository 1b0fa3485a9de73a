import csv
import io
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "simplest_cubic", *args],
        capture_output=True,
        text=True,
    )


def test_analyze_outputs():
    out = run_cli("analyze", "286")
    assert out.returncode == 0
    assert "f=241" in out.stdout
    assert "D=58081" in out.stdout
    out = run_cli("analyze", "66")
    assert "f=13" in out.stdout
    out = run_cli("analyze", "3")
    assert out.returncode == 0
    assert "tame=false, no NIB" in out.stdout


def test_nib_golden_bytes():
    out = run_cli("nib", "286")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "nib286.md").read_text()
    out = run_cli("nib", "66")
    assert out.stdout == (GOLDEN / "nib66.md").read_text()


def test_nib_wild_exit_code():
    out = run_cli("nib", "9")
    assert out.returncode == 3
    assert "wild" in out.stderr


def test_gaussian_examples():
    out = run_cli("gaussian", "12", "--verify")
    assert out.returncode == 0
    assert "(1/9)(ρ^2-14ρ-5)" in out.stdout
    assert "X^3+X^2-2X-1" in out.stdout
    assert "verify=pass" in out.stdout
    out = run_cli("gaussian", "250")
    assert "X^3-X^2-3012X-32801" in out.stdout
    out = run_cli("gaussian", "0")
    assert out.returncode == 3


def test_table_golden_bytes():
    out = run_cli("table", "--from", "1", "--to", "500", "--filter", "mod27")
    assert out.returncode == 0
    assert out.stdout == (GOLDEN / "table2.md").read_text()
    out = run_cli("table", "--from", "1", "--to", "500", "--filter", "delta-ne-f")
    assert out.stdout == (GOLDEN / "table1_full.md").read_text()


def test_table_jobs_byte_stability():
    base = run_cli("table", "--from", "1", "--to", "200", "--filter", "mod27", "--jobs", "1")
    for jobs in ("2", "3"):
        other = run_cli("table", "--from", "1", "--to", "200", "--filter", "mod27", "--jobs", jobs)
        assert other.stdout == base.stdout


def test_table_jobs_capped_at_cpu_count(monkeypatch, capsys):
    # A recording pool that runs in-process: no worker process is started.
    from simplest_cubic import cli

    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    argv = ["table", "--from", "1", "--to", "40", "--jobs"]
    assert cli.main(argv + ["1"]) == cli.EXIT_OK
    serial = capsys.readouterr().out
    assert pools == []
    for jobs, workers in (("3000", 3), ("0", 3), ("2", 2)):
        pools.clear()
        assert cli.main(argv + [jobs]) == cli.EXIT_OK
        assert capsys.readouterr().out == serial, jobs
        assert pools == [workers], jobs
    pools.clear()
    assert cli.main(argv + ["-1"]) == cli.EXIT_USAGE
    assert capsys.readouterr() == ("", "error: --jobs must be 0 or more, not -1\n")
    assert pools == []


def test_table_empty_range_usage_error():
    out = run_cli("table", "--from", "5", "--to", "4")
    assert out.returncode == 2


def test_table_bad_flags():
    out = run_cli("table", "--from", "1", "--to", "10", "--filter", "bogus")
    assert out.returncode == 2


def test_json_schema_and_roundtrip():
    jsonschema = pytest.importorskip("jsonschema")
    import simplest_cubic

    schema_path = (
        pathlib.Path(simplest_cubic.__file__).parent / "schema" / "output_record.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    out = run_cli("analyze", "286", "--format", "json")
    record = json.loads(out.stdout)
    jsonschema.validate(record, schema)
    out = run_cli("analyze", "3", "--format", "json")
    record = json.loads(out.stdout)
    jsonschema.validate(record, schema)
    assert record["generators"] is None and record["gaussian"] is None

    out = run_cli("nib", "66", "--format", "json")
    record = json.loads(out.stdout)
    jsonschema.validate(record, schema)
    # lossless round-trip of exact coordinates
    from simplest_cubic.nib import all_generators

    for got, g in zip(record["generators"], all_generators(66)):
        coords = tuple(Fraction(c) for c in got["coordinates"])
        assert coords == g.element.coeffs
        assert got["min_poly"]["coefficients"] == ["1"] + [
            str(int(c)) for c in (g.min_poly.p2, g.min_poly.p1, g.min_poly.p0)
        ]


def test_gaussian_json_with_verify():
    jsonschema = pytest.importorskip("jsonschema")
    import simplest_cubic

    schema_path = (
        pathlib.Path(simplest_cubic.__file__).parent / "schema" / "output_record.schema.json"
    )
    schema = json.loads(schema_path.read_text())
    out = run_cli("gaussian", "12", "--verify", "--format", "json")
    assert out.returncode == 0
    record = json.loads(out.stdout)
    jsonschema.validate(record, schema)
    assert record["gaussian"]["numeric_match"]["ok"] is True


def test_csv_format():
    out = run_cli("table", "--from", "1", "--to", "100", "--filter", "mod27", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert rows[0] == ["n", "delta", "conductor", "period", "min_poly"]
    assert rows[1][0] == "12"
    assert rows[1][3] == "(1/9)(ρ^2-14ρ-5)"
    out = run_cli("nib", "286", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out.stdout)))
    assert len(rows) == 7


def test_json_table():
    out = run_cli("table", "--from", "9", "--to", "14", "--filter", "tame", "--format", "json")
    records = json.loads(out.stdout)
    assert [r["n"] for r in records] == [10, 11, 12, 13, 14]  # 9 is wild


def test_verify_subcommand():
    out = run_cli("verify", "66")
    assert out.returncode == 0
    assert "pass" in out.stdout
    out = run_cli("verify", "9")
    assert out.returncode == 3


def test_precision_cap_exit_code(monkeypatch, capsys):
    # Periods shifted by 1 match no subgroup polynomial, so the one display
    # pass cannot identify the printed conjugate: an arithmetic failure.
    from simplest_cubic import cli, gaussian

    real = gaussian.numeric_periods

    def shifted(f, precision_bits=256):
        return [(desc, [eta + 1 for eta in etas]) for desc, etas in real(f, precision_bits)]

    monkeypatch.setattr(gaussian, "numeric_periods", shifted)
    assert cli.main(["gaussian", "66"]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("error: cannot identify the period conjugate for n=66")
    assert err.count("\n") == 1


def test_oracle_retries_up_to_the_cap(monkeypatch, capsys):
    # An inconclusive oracle result doubles the precision; past
    # PRECISION_CAP the command fails with one error line and no stdout.
    from simplest_cubic import cli, gaussian

    real = gaussian.numeric_verify
    tried = []

    def below_512(n, precision_bits=256, display=None):
        tried.append(precision_bits)
        if precision_bits < 512:
            raise gaussian.PrecisionInsufficientError(f"inconclusive at {precision_bits} bits")
        return real(n, precision_bits, display)

    monkeypatch.setattr(gaussian, "numeric_verify", below_512)
    assert cli.main(["verify", "66"]) == cli.EXIT_OK
    out = capsys.readouterr()
    last = out.out.splitlines()[-1]
    assert last.startswith("numeric gaussian oracle: pass ") and last.endswith(" precision=512")
    assert out.err == "" and tried == [256, 512]

    def always(n, precision_bits=256, display=None):
        tried.append(precision_bits)
        raise gaussian.PrecisionInsufficientError(f"inconclusive at {precision_bits} bits")

    monkeypatch.setattr(gaussian, "numeric_verify", always)
    tried.clear()
    assert cli.main(["verify", "66"]) == cli.EXIT_VERIFY
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: inconclusive at {gaussian.PRECISION_CAP} bits\n"
    assert tried == [256, 512, 1024, 2048, 4096]


def test_pollard_rho_failure_exit_code(monkeypatch, capsys):
    # Delta_(10^7) = 3302917 * 30276277: both factors lie past trial division.
    from simplest_cubic import arith, cli, invariants

    def fail(m: int) -> int:
        raise ArithmeticError(f"pollard rho failed on {m}")

    monkeypatch.setattr(arith, "_pollard_rho", fail)
    invariants.conductor.cache_clear()
    invariants.decompose.cache_clear()
    assert cli.main(["analyze", "10000000"]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err == "error: pollard rho failed on 100000030000009\n"


def test_verify_runs_one_display_pass(monkeypatch, capsys):
    # n = 66 matches its period numerically (96 bits); the oracle runs at 256.
    # Each command computes the printed period once.
    from simplest_cubic import cli, gaussian

    passes = []
    real = gaussian.numeric_periods

    def spy(f, precision_bits=256):
        passes.append(precision_bits)
        return real(f, precision_bits)

    monkeypatch.setattr(gaussian, "numeric_periods", spy)
    for argv in (["gaussian", "66", "--verify"], ["verify", "66"]):
        passes.clear()
        assert cli.main(argv) == cli.EXIT_OK
        assert passes == [96, 256], argv
    passes.clear()
    assert cli.main(["table", "--from", "66", "--to", "66", "--format", "json"]) == 0
    assert passes == [96]
    # f = 7*571*13177*142357*844489 (63 bits): still one pass at 96 bits.
    passes.clear()
    n = 2527734792245593187
    assert gaussian.period_identity(n).display.pair == (-1646, -2103)
    assert passes == [96]
    capsys.readouterr()


def test_numeric_commands_never_call_polyroots(monkeypatch, capsys):
    # The roots come from exact integer isolation; polyroots is a test reference.
    import mpmath
    from simplest_cubic import cli

    def forbidden(*args, **kwargs):
        raise AssertionError("mpmath.polyroots called")

    monkeypatch.setattr(mpmath, "polyroots", forbidden)
    for argv in (["verify", "66"], ["gaussian", "66", "--verify"]):
        assert cli.main(argv) == cli.EXIT_OK, argv
    capsys.readouterr()


def test_period_budget_exit_code(capsys):
    # f = 7*13*31*50640606623791: the largest prime alone is far over budget,
    # so the command stops before any O(p) work, with one line and no stdout.
    # A table names the row that failed.
    from simplest_cubic import cli

    for argv, prefix in (
        (["gaussian", "1000000028"], ""),
        (["analyze", "1000000028", "--format", "json"], ""),
        (["table", "--from", "1000000028", "--to", "1000000028", "--jobs", "1"], "n=1000000028: "),
    ):
        assert cli.main(argv) == cli.EXIT_VERIFY, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err == (
            f"error: {prefix}the periods of conductor 142857151285714411 need "
            "50640606623842 terms, over the budget of 100000000\n"
        ), argv


def _count_calls(monkeypatch, name: str) -> list:
    """Count the calls of simplest_cubic's function ``name`` under every binding."""
    fn = getattr(sys.modules["simplest_cubic.nib"], name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "simplest_cubic" or mod_name.startswith("simplest_cubic."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, spy)
    return calls


def test_each_command_builds_the_generators_once(monkeypatch, capsys):
    # n = 66 takes the numeric display path, whose trio needs all_generators.
    from simplest_cubic import cli

    gens = _count_calls(monkeypatch, "all_generators")
    checks = _count_calls(monkeypatch, "verify_nib")
    expected = {
        ("nib", "66"): (1, 1),
        ("nib", "66", "--format", "json"): (1, 1),
        ("nib", "66", "--format", "csv"): (1, 1),
        ("gaussian", "66", "--format", "json"): (1, 1),
        ("analyze", "286", "--format", "json"): (1, 1),
        ("table", "--from", "66", "--to", "66", "--format", "json"): (1, 1),
        ("verify", "66"): (1, 7),  # its own verify_nib on all six
    }
    for argv, counts in expected.items():
        gens.clear()
        checks.clear()
        assert cli.main(list(argv)) == cli.EXIT_OK
        assert (len(gens), len(checks)) == counts, argv
    capsys.readouterr()


def test_precision_only_on_numeric_commands():
    for argv in (("nib", "5"), ("analyze", "5"), ("table", "--from", "1", "--to", "2")):
        out = run_cli(*argv, "--precision", "128")
        assert out.returncode == 2, argv
        assert "unrecognized arguments: --precision" in out.stderr
    out = run_cli("verify", "66", "--format", "json")
    assert out.returncode == 2
    assert "unrecognized arguments: --format" in out.stderr
    out = run_cli("gaussian", "12", "--verify", "--precision", "128")
    assert out.returncode == 0
    assert "verify=pass" in out.stdout and "precision=128" in out.stdout


def _run_main(capsys, *argv: str) -> str:
    from simplest_cubic import cli

    assert cli.main(list(argv)) == cli.EXIT_OK
    return capsys.readouterr().out


def test_md_and_csv_cells_are_the_json_record(capsys):
    for n in (12, 66, 286, -15):
        record = json.loads(_run_main(capsys, "nib", str(n), "--format", "json"))
        gens = record["generators"]
        md = _run_main(capsys, "nib", str(n)).splitlines()[2:]
        assert md == [
            "| {%d,%d} | %s | %s |" % (*g["pair"], g["element"], g["min_poly"]["string"])
            for g in gens
        ]
        rows = list(csv.reader(io.StringIO(_run_main(capsys, "nib", str(n), "--format", "csv"))))
        assert rows[1:] == [
            [str(n), str(g["pair"][0]), str(g["pair"][1]), g["element"], g["min_poly"]["string"]]
            for g in gens
        ]

        record = json.loads(_run_main(capsys, "gaussian", str(n), "--verify", "--format", "json"))
        period, match = record["gaussian"], record["gaussian"]["numeric_match"]
        conductor = record["conductor"]
        shown = conductor["factored"]
        md = _run_main(capsys, "gaussian", str(n), "--verify").splitlines()
        assert md[0] == "n=%d f=%s t=%d" % (
            n, shown if shown == str(conductor["value"]) else f"{conductor['value']}={shown}",
            record["prime_count"],
        )
        assert md[1] == f"η = {period['element']}"
        assert md[2] == f"minimal polynomial: {period['min_poly']['string']}"
        assert md[3] == (f"verify=pass residual={float(match['residual']):.3e} "
                         f"precision={match['precision_bits']} subgroup=[{match['subgroup']}]")
        rows = list(csv.reader(io.StringIO(
            _run_main(capsys, "gaussian", str(n), "--verify", "--format", "csv"))))
        assert rows[1] == [str(n), str(conductor["value"]), str(record["prime_count"]),
                           period["element"], period["min_poly"]["string"], "pass"]
