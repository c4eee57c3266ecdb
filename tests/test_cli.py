import io
import json
import os
import resource
import signal
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout
from fractions import Fraction

import pytest

from classmax import cli, cubic, sweep

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


EXPECTED_SCAN_200 = """\
eps=1/20
D_K=-3 H=1 h=1 N=1 C=0.9729084348694687107
D_K=-23 H=3 h=3 N=1 C=2.773818617890694607
D_K=-47 H=5 h=5 N=1 C=4.541167885124564220
D_K=-71 H=7 h=7 N=1 C=6.292403751297605636
D_K=-167 H=11 h=11 N=1 C=9.678872599268429560
D_K=-191 H=13 h=13 N=1 C=11.40033250135200530
ND=62 N1=6 N2=0 N3=0
"""


class TestScanCommand:
    def test_text_output_golden(self):
        rc, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/20"]
        )
        assert rc == 0
        assert out == EXPECTED_SCAN_200

    def test_byte_stable_across_shards(self):
        inputs = [
            ["--family", "quad-imaginary", "--max", "500", "--eps", "0.05"],
            ["--family", "cubic", "--fixtures-only", "--max", "1500", "--eps", "1/100"],
            ["--family", "quad-imaginary", "--max", "500", "--mode", "minima",
             "--eps", "1", "--compat-minima-init-one"],
        ]
        for argv in inputs:
            base = None
            for shards in (1, 2, 5, 1000):  # 1000 shards: more than keys
                rc, out = run_cli(["scan", *argv, "--shards", str(shards)])
                assert rc == 0
                assert "D_K=" in out or "f=" in out
                if base is None:
                    base = out
                else:
                    assert out == base, (argv, shards)

    def test_one_scan_pass_per_eps(self, monkeypatch):
        """--shards sets only the sweep's workers: each eps gets one scan and
        one merge of a single ShardResult covering [--min, --max], and a
        quadratic eps builds its records in one sweep.quad_records call."""
        scans, merges, builds = [], [], []
        real_scan, real_merge = cli.scan_collect, cli.merge_shards
        real_records = sweep.quad_records

        def counting_records(*args, **kwargs):
            builds.append(1)
            return real_records(*args, **kwargs)

        def counting_scan(records, *args, **kwargs):
            scans.append(1)
            return real_scan(records, *args, **kwargs)

        def counting_merge(shards, *args, **kwargs):
            merges.append([(s.lo, s.hi) for s in shards])
            return real_merge(shards, *args, **kwargs)

        monkeypatch.setattr(cli, "scan_collect", counting_scan)
        monkeypatch.setattr(cli, "merge_shards", counting_merge)
        monkeypatch.setattr(sweep, "quad_records", counting_records)
        cases = [
            (["--family", "quad-imaginary", "--max", "5000", "--eps", "1/20",
              "--eps", "5/4", "--shards", "1000"], 5000, 2, 2),
            (["--family", "cubic", "--fixtures-only", "--max", "1500", "--eps", "1/100",
              "--shards", "5"], 1500, 1, 0),
        ]
        for argv, hi, n_eps, n_builds in cases:
            scans.clear()
            merges.clear()
            builds.clear()
            rc, out = run_cli(["scan", *argv])
            assert rc == 0 and out.count("eps=") == n_eps
            assert len(scans) == n_eps, argv
            assert merges == [[(1, hi)]] * n_eps, argv
            assert len(builds) == n_builds, argv

    def test_decimal_eps_equals_rational(self):
        _, a = run_cli(["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "0.05"])
        _, b = run_cli(["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/20"])
        assert a == b

    def test_csv_and_text_agree(self):
        _, text = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/20"]
        )
        _, csv_out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/20",
             "--format", "csv"]
        )
        text_rows = [
            line.split() for line in text.splitlines() if line.startswith("D_K=")
        ]
        csv_rows = [line.split(",") for line in csv_out.splitlines()]
        assert len(text_rows) == len(csv_rows)
        for trow, crow in zip(text_rows, csv_rows):
            assert trow[0].removeprefix("D_K=") == crow[1]
            assert trow[1].removeprefix("H=") == crow[3]
            assert trow[2].removeprefix("h=") == crow[4]
            assert trow[4].removeprefix("C=") == crow[7]

    def test_json_lines(self):
        _, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/20",
             "--format", "json-lines"]
        )
        lines = [json.loads(line) for line in out.splitlines()]
        events, summary = lines[:-1], lines[-1]
        assert [e["D_K"] for e in events] == [-3, -23, -47, -71, -167, -191]
        assert summary["ND"] == 62 and summary["events"] == 6

    def test_counters_flag(self):
        _, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "200", "--eps", "1/50",
             "--counters"]
        )
        lines = out.splitlines()
        assert lines[1].startswith("D_K=-3 ")
        assert lines[2] == "ND=1 N1=1 N2=0 N3=0"

    def test_minima_compat_preset(self, data_rows):
        rc, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "1012", "--eps", "1",
             "--mode", "minima", "--compat-minima-init-one"]
        )
        assert rc == 0
        got = [
            int(line.split()[0].removeprefix("D_K=")) for line in out.splitlines()
            if line.startswith("D_K=")
        ]
        want = [-int(r["D"]) for r in data_rows("imag_eps_1_minima_listed.csv") if int(r["D"]) <= 1012]
        assert got == want

    def test_raw_metric_ignores_eps_with_compat_preset(self):
        """A raw value is H over disc 1 at the scan's eps, and so is the
        preset starting value 1; any --eps then only changes the header line."""
        outs = {}
        for eps in ("0", "1/50"):
            for mode in ("maxima", "minima"):
                rc, out = run_cli(
                    ["scan", "--family", "quad-real", "--min", "2", "--max", "1000",
                     "--eps", eps, "--metric", "raw-H", "--mode", mode,
                     "--compat-minima-init-one", "--counters"]
                )
                assert rc == 0
                outs[eps, mode] = out.split("\n", 1)[1]
        assert outs["0", "maxima"] == outs["1/50", "maxima"]
        assert outs["0", "minima"] == outs["1/50", "minima"]
        assert outs["0", "maxima"].startswith("D_K=12 H=2 ")

    def test_real_family(self):
        rc, out = run_cli(
            ["scan", "--family", "quad-real", "--min", "2", "--max", "1000",
             "--eps", "0", "--metric", "raw-H"]
        )
        assert rc == 0
        got = [
            int(line.split()[0].removeprefix("D_K=")) for line in out.splitlines()
            if line.startswith("D_K=")
        ]
        assert got == [5, 12, 60, 316, 505, 817, 940]

    def test_cubic_fixtures_only(self):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "1500", "--eps", "1/100",
             "--fixtures-only"]
        )
        assert rc == 0
        assert "f=7 P=x^3+x^2-2*x-1 H=1 h=1 N=1" in out
        assert "f=163 P=x^3+x^2-54*x-169 H=4 h=4 N=1" in out

    def test_cubic_divisors_scope(self):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "200", "--eps", "1/50",
             "--fixtures-only", "--scope", "divisors", "--metric", "full"]
        )
        assert rc == 0
        rows = [line for line in out.splitlines() if line.startswith("f=")]
        assert rows[1].startswith("f=63 H=1.732050807568877294 h=1.000000000000000000 N=2")

    def test_multiple_eps(self):
        rc, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "100",
             "--eps", "1/20", "--eps", "1/50"]
        )
        assert rc == 0
        assert out.count("eps=") == 2

    def test_extra_fixture_path(self, tmp_path):
        extra = tmp_path / "extra.txt"
        extra.write_text("CUBIC,2763,0,-921,-10745,63\nCUBIC,2763,0,-921,5833,9\n")
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "3000", "--eps", "1/10",
             "--fixtures-only", "--metric", "per-field-max",
             "--fixtures", str(extra)]
        )
        assert rc == 0
        assert "f=2763" in out


class CountingLookup:
    """The bundled fixtures' lookup, counting its calls."""

    def __init__(self):
        self.store = cubic.FixtureStore.bundled()
        self.gets = 0

    def __call__(self, field):
        self.gets += 1
        return self.store.get(field)


class TestCubicStream:
    @pytest.mark.parametrize(
        "scope", [cubic.EXACT_CONDUCTOR, cubic.DIVISORS], ids=["exact_conductor", "divisors"]
    )
    def test_each_field_read_once_per_scan(self, monkeypatch, bundled_fixtures, scope):
        """The families and their class numbers are read once, not per eps."""
        lookup = CountingLookup()
        source = (lookup, lookup.store.conductors)
        monkeypatch.setattr(cli, "_cubic_source", lambda config: nullcontext(source))
        eps_list = [cli.parse_eps(e) for e in ("1/100", "1/10", "1/2")]
        config = cli.ScanConfig(
            family=cli.CUBIC, eps_list=eps_list, lo=1, hi=100_000, scope=scope,
            fixtures_only=True,
        )
        results = cli.run_scan(config)
        families = [
            cubic.family_members(f, scope) for f in bundled_fixtures.conductors if f <= 100_000
        ]
        assert all(bundled_fixtures.get(m) for members in families for m in members)
        assert lookup.gets == sum(len(members) for members in families)
        assert [total for _, _, total in results] == [len(families)] * 3

    @pytest.mark.parametrize("scope", ["exact", "divisors"])
    @pytest.mark.parametrize("metric", ["nongenus", "full", "per-field-max"])
    def test_multi_eps_is_concatenation_of_single_eps(self, scope, metric):
        argv = ["scan", "--family", "cubic", "--max", "7000000", "--fixtures-only",
                "--scope", scope, "--metric", metric, "--counters"]
        eps_list = ["1/100", "1/10", "1/2"]
        singles = []
        for eps in eps_list:
            rc, out = run_cli([*argv, "--eps", eps])
            assert rc == 0
            singles.append(out)
        rc, out = run_cli([*argv, *(x for eps in eps_list for x in ("--eps", eps))])
        assert rc == 0 and out == "".join(singles)


class TestScanConfigErrors:
    def test_bad_range(self):
        rc, _ = run_cli(["scan", "--family", "quad-imaginary", "--min", "10", "--max", "5"])
        assert rc == cli.EXIT_CONFIG

    def test_raw_metric_on_cubic(self):
        rc, _ = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--metric", "raw-H",
             "--fixtures-only"]
        )
        assert rc == cli.EXIT_CONFIG

    def test_per_field_max_on_quadratic(self):
        rc, _ = run_cli(
            ["scan", "--family", "quad-imaginary", "--max", "100",
             "--metric", "per-field-max"]
        )
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, option, scan",
        [
            (["--family", "quad-imaginary", "--scope", "divisors"], "--scope", "a quadratic scan"),
            (["--family", "quad-real", "--fixtures", "extra.txt"], "--fixtures",
             "a quadratic scan"),
            (["--family", "quad-imaginary", "--fixtures-only"], "--fixtures-only",
             "a quadratic scan"),
            (["--family", "quad-real", "--backend-cmd", "false"], "--backend-cmd",
             "a quadratic scan"),
            (["--family", "quad-imaginary", "--cache", "c.txt"], "--cache", "a quadratic scan"),
            (["--family", "cubic", "--fixtures-only", "--backend-cmd", "false"], "--backend-cmd",
             "a cubic --fixtures-only scan"),
            (["--family", "cubic", "--fixtures-only", "--cache", "c.txt"], "--cache",
             "a cubic --fixtures-only scan"),
        ],
        ids=["quad-scope", "quad-fixtures", "quad-fixtures-only", "quad-backend-cmd",
             "quad-cache", "cubic-fixtures-only-backend-cmd", "cubic-fixtures-only-cache"],
    )
    def test_option_the_scan_never_reads(self, tmp_path, monkeypatch, capsys, argv, option, scan):
        """An option that the scan would ignore is one config error line,
        given before any sweep, fixture read, backend start or cache write."""
        monkeypatch.chdir(tmp_path)
        rc, out = run_cli(["scan", "--max", "200", "--eps", "1/50", *argv])
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        assert capsys.readouterr().err == f"config error: {option} is not read by {scan}\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_eps(self):
        rc, _ = run_cli(["scan", "--family", "quad-imaginary", "--max", "100", "--eps", "x"])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--shards", "0"], "config error: shards must be >= 1"),
            (["--min", "5", "--max", "4"], "config error: need 1 <= min <= max"),
        ],
    )
    def test_config_error_line(self, capsys, argv, message):
        rc, out = run_cli(["scan", "--family", "quad-imaginary", "--max", "100", *argv])
        assert rc == cli.EXIT_CONFIG and out == ""
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--family", "quad-imaginary", "--eps", "1/20"],
            ["threshold", "--family", "quad-real", "--grid", "1/10"],
        ],
    )
    def test_range_beyond_int32_is_refused(self, capsys, argv):
        """The sieves hold |D| in int32: --max 10^19 is one config error
        naming 2^31, not numpy's allocation message."""
        rc, out = run_cli([*argv, "--max", str(10**19)])
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "2^31" in err and err.count("\n") == 1

    def test_unknown_mode_rejected_before_the_sweep(self, monkeypatch):
        """ScanConfig.validate rejects a misspelt mode from a library caller,
        which argparse's choices never see, before any sweep starts."""

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(sweep, "quad_triples", no_sweep)
        config = cli.ScanConfig(
            family=cli.QUAD_IMAGINARY, eps_list=[cli.parse_eps("1/20")], lo=1, hi=2_000_000,
            mode="maxmia",
        )
        with pytest.raises(ValueError, match="^unknown mode 'maxmia'$"):
            cli.run_scan(config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--family", "quad-imaginary", "--max", "100", "--eps", "1/0"],
            ["genus-family", "--primes", "2,3", "--eps", "1/0"],
            ["threshold", "--family", "quad-imaginary", "--max", "100", "--grid", "1/0"],
        ],
        ids=["scan-eps", "genus-family-eps", "threshold-grid"],
    )
    def test_zero_denominator(self, argv):
        rc, out = run_cli(argv)
        assert rc == cli.EXIT_CONFIG and out == ""

    def test_missing_fixture_file(self, tmp_path):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--fixtures-only",
             "--fixtures", str(tmp_path / "missing.txt")]
        )
        assert rc == cli.EXIT_CONFIG and out == ""

    def test_fixture_row_of_another_conductor(self, tmp_path, capsys):
        extra = tmp_path / "extra.txt"
        extra.write_text("CUBIC,13,1,-2,-1,1\n")  # the field of conductor 7
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--fixtures-only",
             "--fixtures", str(extra)]
        )
        assert rc == cli.EXIT_CONFIG and out == ""
        assert capsys.readouterr().err.startswith("config error: fixture line 1: ")

    @pytest.mark.parametrize(
        "text",
        ["CUBIC,7,1,-2,-1,5\n", "CUBIC,163,1,-54,-169,4\nCUBIC,163,1,-54,-169,8\n"],
        ids=["against-bundled", "within-file"],
    )
    def test_conflicting_fixture_class_numbers(self, tmp_path, capsys, text):
        """A polynomial given two different class numbers, by the bundled
        table and a --fixtures file or twice in one file, is a config error."""
        extra = tmp_path / "extra.txt"
        extra.write_text(text)
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "200", "--eps", "1/100", "--fixtures-only",
             "--fixtures", str(extra)]
        )
        assert rc == cli.EXIT_CONFIG and out == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: fixture line ") and "conflicting class numbers" in err
        assert err.count("\n") == 1

    def test_fixture_class_number_its_genus_number_does_not_divide(self, tmp_path, capsys):
        """f = 2763 = 9 * 307 has N = 2, so 3 must divide each H: a table
        line with H = 5 is a config error naming the line, not a traceback."""
        extra = tmp_path / "extra.txt"
        extra.write_text("CUBIC,2763,0,-921,-10745,5\nCUBIC,2763,0,-921,5833,9\n")
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "3000", "--eps", "1/20", "--fixtures-only",
             "--fixtures", str(extra)]
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err == (
            "config error: fixture line 1: genus number 3 does not divide class number 5\n"
        )

    def test_repeated_equal_fixture_line(self, tmp_path):
        extra = tmp_path / "extra.txt"
        extra.write_text("CUBIC,7,1,-2,-1,1\nCUBIC,7,1,-2,-1,1\n")
        argv = ["scan", "--family", "cubic", "--max", "200", "--eps", "1/100", "--fixtures-only"]
        rc, out = run_cli([*argv, "--fixtures", str(extra)])
        assert rc == 0 and "f=7 P=x^3+x^2-2*x-1 H=1 h=1 N=1" in out
        assert (rc, out) == run_cli(argv)

    def test_uncovered_cubic_conductor(self, capsys):
        """Without --fixtures-only or a backend, the first conductor the
        bundled fixtures miss is a config error, not a traceback."""
        rc, out = run_cli(["scan", "--family", "cubic", "--max", "1500", "--eps", "1/100"])
        assert rc == cli.EXIT_CONFIG and out == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "f=13," in err

    def test_out_of_memory_is_exit_2(self, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 18.6 GiB for an array")

        monkeypatch.setattr(sweep, "quad_triples", no_memory)
        rc, out = run_cli(["scan", "--family", "quad-imaginary", "--max", "20000000000"])
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err == "config error: the range needs more memory than is available\n"

    def test_argparse_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--family", "martian", "--max", "100"])
        assert err.value.code == cli.EXIT_CONFIG


def run_cli_process(argv, seconds=60) -> subprocess.CompletedProcess:
    """The CLI in a child process, killed after `seconds` and held to 3 GB of
    address space, so that a comparison that takes huge powers fails the
    test instead of stalling the suite."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "classmax.cli", *argv], env=env, capture_output=True,
        text=True, timeout=seconds, preexec_fn=cap_memory,
    )


class TestTinyEps:
    """At eps = 10^-24 these scans have the events of eps = 0.  Values that
    tie at eps = 0 then differ by less than the float gap, so compare's
    exact route decides them: it cancels the equal h instead of raising it
    to the power 2 * 10^24."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "quad-imaginary", "--max", "200"],
            ["--family", "quad-real", "--min", "2", "--max", "20000", "--metric", "full",
             "--counters"],
            ["--family", "cubic", "--fixtures-only", "--max", "7000000", "--scope",
             "divisors", "--metric", "full", "--counters"],
        ],
        ids=["imaginary", "real-full", "cubic-divisors"],
    )
    def test_tiny_eps_prints_the_eps_zero_lines(self, argv):
        tiny = run_cli_process(["scan", *argv, "--eps", "1e-24"])
        rc, zero = run_cli(["scan", *argv, "--eps", "0"])
        assert (tiny.returncode, tiny.stderr, rc) == (0, "", 0)
        head, rest = zero.split("\n", 1)
        assert head == "eps=0/1" and rest.count("\n") > 2
        assert tiny.stdout == "eps=1/1000000000000000000000000\n" + rest

    @pytest.mark.parametrize("mode", ["minima", "maxima"])
    def test_tiny_eps_raw_scan_from_one(self, mode):
        """A raw record is its h over disc 1 at the scan's eps, and so is
        the preset C = 1: at eps = 10^-24 both are h, compared without a
        power.  Minima from C = 1 have no event (no h is below 1)."""
        argv = ["scan", "--family", "quad-real", "--min", "2", "--max", "20000", "--metric",
                "raw-h", "--mode", mode, "--compat-minima-init-one", "--counters"]
        tiny = run_cli_process([*argv, "--eps", "1e-24"])
        rc, zero = run_cli([*argv, "--eps", "0"])
        assert (tiny.returncode, tiny.stderr, rc) == (0, "", 0)
        head, rest = zero.split("\n", 1)
        assert head == "eps=0/1" and tiny.stdout == "eps=1/1000000000000000000000000\n" + rest
        if mode == "minima":
            assert rest == "ND=6081 N1=0 N2=0 N3=0\n"
        else:
            assert rest.startswith("D_K=") and rest.count("\n") > 2

    def test_threshold_on_a_tiny_grid(self):
        """Bisection to a 10^-24 grid probes an eps within 10^-24 of a
        crossing, where unequal h and unequal disc differ by less than the
        float gap: compare decides by logs instead of powers of 2 * 10^24."""
        run = run_cli_process(
            ["threshold", "--family", "quad-imaginary", "--max", "3000", "--grid", "1e-24"],
            seconds=30,
        )
        assert (run.returncode, run.stderr) == (0, "")
        head, found = run.stdout.rstrip("\n").split("=")
        assert head == "threshold eps"
        assert Fraction(1269, 1000) <= Fraction(found) < Fraction(1270, 1000)
        rc, coarse = run_cli(
            ["threshold", "--family", "quad-imaginary", "--max", "3000", "--grid", "1/1000"]
        )
        assert (rc, coarse) == (0, "threshold eps=1269/1000\n")


class TestGenusFamilyCommand:
    def test_small_family(self):
        rc, out = run_cli(["genus-family", "--primes", "2,3", "--eps", "1/20"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("D_K=-8 H=1 h=1 N=1")
        assert lines[1].startswith("D_K=-24 H=2 h=1 N=2")

    def test_count_form(self):
        rc, out = run_cli(["genus-family", "--count", "3", "--eps", "1/20"])
        assert rc == 0
        assert out.splitlines()[-1].startswith("D_K=-120 H=4")

    def test_budget_exit_code(self):
        rc, _ = run_cli(
            ["genus-family", "--primes", "2,3,5", "--budget-seconds", "0"]
        )
        assert rc == cli.EXIT_BUDGET

    def test_row_is_the_scan_row(self):
        """genus-family and scan print a field's record through one layout."""
        line = "D_K=-8 H=1 h=1 N=1 C=0.9493421209505192093"
        rc, out = run_cli(["genus-family", "--primes", "2"])
        assert (rc, out) == (0, line + "\n")
        rc, out = run_cli(
            ["scan", "--family", "quad-imaginary", "--min", "8", "--max", "8", "--eps", "1/20"]
        )
        assert rc == 0 and out.splitlines()[1] == line


class TestThresholdCommand:
    def test_rejects_shards_below_one(self):
        rc, out = run_cli(
            ["threshold", "--family", "quad-imaginary", "--max", "2000", "--grid", "1/4",
             "--shards", "0"]
        )
        assert rc == cli.EXIT_CONFIG and out == ""

    @pytest.mark.parametrize("grid", ["--grid=0", "--grid=-1/10"])
    def test_rejects_nonpositive_grid_before_sweep(self, monkeypatch, capsys, grid):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the grid step was checked")

        monkeypatch.setattr(sweep, "quad_triples", no_sweep)
        rc, out = run_cli(["threshold", "--family", "quad-imaginary", "--max", "2000", grid])
        assert rc == cli.EXIT_CONFIG and out == ""
        assert capsys.readouterr().err == "config error: grid step must be positive\n"

    def test_small_range(self):
        rc, out = run_cli(
            ["threshold", "--family", "quad-imaginary", "--max", "2000", "--grid", "1/4"]
        )
        assert rc == 0
        assert out.startswith("threshold eps=")

    def test_sentinel(self):
        rc, out = run_cli(
            ["threshold", "--family", "quad-imaginary", "--min", "3", "--max", "3",
             "--grid", "1/10"]
        )
        assert rc == 0
        assert "below grid minimum" in out


class TestCacheCompact:
    def test_compacts(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("K:1,a,1\nK:1,b,2\n")
        rc, out = run_cli(["cache-compact", "--cache", str(path)])
        assert rc == 0
        assert "1 entries" in out
        assert len(path.read_text().splitlines()) == 1

    def test_path_under_missing_directory_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "c.txt"
        rc, out = run_cli(["cache-compact", "--cache", str(path)])
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err == f"config error: cannot write cache {path}: No such file or directory\n"


OK_3_ADAPTER = (
    "import sys\n"
    "for line in sys.stdin:\n"
    "    print('A', line.split()[1], 'OK 3', flush=True)\n"
)


def genus_adapter(log) -> str:
    """An adapter that appends each request's coefficients to `log` and
    answers H = 7 * 3^(N-1): genus theory allows it, and no fixture holds it."""
    return (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    _, req, _, c2, c1, c0 = line.split()\n"
        f"    with open({str(log)!r}, 'a') as fh:\n"
        "        fh.write(f'{c2} {c1} {c0}\\n')\n"
        "    f = 1 - 3 * int(c1) if c2 == '1' else -3 * int(c1)\n"
        "    primes = [q for q in range(2, f + 1) if all(q % r for r in range(2, q))]\n"
        "    n = sum(1 for q in primes if f % q == 0)\n"
        "    print('A', req, 'OK', 7 * 3 ** (n - 1), flush=True)\n"
    )


def write_adapter(tmp_path, source: str) -> str:
    """A --backend-cmd value that runs `source` with this interpreter."""
    adapter = tmp_path / "adapter.py"
    adapter.write_text(source)
    return f"{sys.executable} {adapter}"


class TestBackendExitCode:
    def test_backend_error_is_exit_3(self, tmp_path):
        rc, _ = run_cli(
            ["scan", "--family", "cubic", "--max", "400", "--eps", "1/100",
             "--backend-cmd", "false", "--cache", str(tmp_path / "c.txt")]
        )
        assert rc == cli.EXIT_BACKEND

    def test_unstartable_backend_is_exit_3(self, capsys):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--eps", "1/20",
             "--backend-cmd", "/nonexistent/adapter"]
        )
        assert (rc, out) == (cli.EXIT_BACKEND, "")
        assert capsys.readouterr().err.startswith("backend error: cannot start backend")

    def test_err_reply_prints_one_prefix(self, tmp_path, capsys):
        adapter = write_adapter(
            tmp_path,
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('A', line.split()[1], 'ERR no such field', flush=True)\n",
        )
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--eps", "1/20",
             "--backend-cmd", adapter]
        )
        assert (rc, out) == (cli.EXIT_BACKEND, "")
        assert capsys.readouterr().err == (
            "backend error: no such field [request CLASSNO_CUBIC:1:-4:1]\n"
        )

    def test_no_command_names_the_uncached_request(self, tmp_path, capsys):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--eps", "1/20",
             "--cache", str(tmp_path / "c.txt")]
        )
        assert (rc, out) == (cli.EXIT_BACKEND, "")
        assert capsys.readouterr().err == (
            "backend error: no backend command configured and result not cached "
            "[request CLASSNO_CUBIC:1:-4:1]\n"
        )

    def test_class_number_its_genus_number_does_not_divide(self, tmp_path, capsys):
        """A reply H = 3 for a field with N = 3 (9 must divide H) is a
        backend error naming its request, not a traceback.  The rejected
        reply never reaches --cache, so a later run with a correct backend
        and the same cache succeeds."""
        cache = tmp_path / "c.txt"
        argv = ["scan", "--family", "cubic", "--max", "3000", "--eps", "1/20",
                "--scope", "divisors", "--cache", str(cache), "--backend-cmd"]
        rc, out = run_cli(argv + [write_adapter(tmp_path, OK_3_ADAPTER)])
        assert (rc, out) == (cli.EXIT_BACKEND, "")
        err = capsys.readouterr().err
        assert err.startswith("backend error: genus number 9 does not divide class number 3 ")
        assert err.endswith("[request CLASSNO_CUBIC:0:-273:1729]\n") and err.count("\n") == 1
        keys = [line.split(",")[0] for line in cache.read_text().splitlines()]
        assert keys and "CLASSNO_CUBIC:0:-273:1729" not in keys
        rc, _ = run_cli(argv + [write_adapter(tmp_path, genus_adapter(tmp_path / "log.txt"))])
        assert rc == cli.EXIT_OK

    @pytest.mark.parametrize("mode", ["maxima", "minima"])
    def test_fixtures_answer_before_the_backend(self, tmp_path, bundled_fixtures, mode):
        """The backend is asked once for each field the fixtures lack and for
        no other, and a family the fixtures cover keeps their class numbers.
        The adapter logs each request and answers H = 7 * 3^(N-1)."""
        log = tmp_path / "requests.txt"
        adapter = write_adapter(tmp_path, genus_adapter(log))
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "200", "--eps", "1/100", "--mode", mode,
             "--backend-cmd", adapter]
        )
        assert rc == cli.EXIT_OK
        lacking = [
            field.coeffs
            for f, _ in cubic.iter_conductors(1, 200)
            for field in cubic.family_members(f, cubic.EXACT_CONDUCTOR)
            if bundled_fixtures.get(field) is None
        ]
        asked = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert asked == lacking and lacking
        assert out == {
            "maxima": "eps=1/100\n"
            "f=7 P=x^3+x^2-2*x-1 H=1 h=1 N=1 C=0.9807290047229150047\n"
            "f=13 P=x^3+x^2-4*x+1 H=7 h=7 N=1 C=6.822736621231840471\n"
            "ND=27 N1=2 N2=0 N3=0\n",
            "minima": "eps=1/100\n"
            "f=7 P=x^3+x^2-2*x-1 H=1 h=1 N=1 C=0.9807290047229150047\n"
            "f=9 P=x^3-3*x+1 H=1 h=1 N=1 C=0.9782673857291711692\n"
            "f=63 H=3.000000000000000000 h=1.000000000000000000 N=2 C=0.9594151995590580263\n"
            "ND=27 N1=2 N2=1 N3=0\n",
        }[mode]

    def test_cache_variable_is_ignored(self, tmp_path, monkeypatch):
        """Only --cache names a cache file: with --backend-cmd alone, a
        CLASSMAX_CACHE in the environment is not written."""
        adapter = write_adapter(tmp_path, OK_3_ADAPTER)
        monkeypatch.setenv("CLASSMAX_CACHE", str(tmp_path / "env_cache.txt"))
        rc, _ = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--eps", "1/20",
             "--backend-cmd", adapter]
        )
        assert rc == cli.EXIT_OK
        assert not (tmp_path / "env_cache.txt").exists()

    def test_scan_closes_its_backend(self, tmp_path):
        """The adapter outlives stdin EOF; the scan still ends its process."""
        pid_file = tmp_path / "pid"
        adapter = write_adapter(
            tmp_path,
            "import os, sys, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "for line in sys.stdin:\n"
            "    print('A', line.split()[1], 'OK 1', flush=True)\n"
            "time.sleep(20)\n",
        )
        try:
            rc, _ = run_cli(
                ["scan", "--family", "cubic", "--max", "60", "--eps", "1/100",
                 "--backend-cmd", adapter]
            )
            assert rc == cli.EXIT_OK
            pid = int(pid_file.read_text())
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        finally:
            if pid_file.exists():
                try:
                    os.kill(int(pid_file.read_text()), signal.SIGKILL)
                except ProcessLookupError:
                    pass


    def test_cached_class_number_is_checked_on_read(self, tmp_path, capsys):
        """A cache line an earlier version wrote without checking it is
        rejected when it is read, with or without a backend, and the
        backend is never asked for that field."""
        cache = tmp_path / "c.txt"
        cache.write_text("CLASSNO_CUBIC:0:-273:1729,3,1\n")
        log = tmp_path / "requests.txt"
        argv = ["scan", "--family", "cubic", "--max", "3000", "--eps", "1/20",
                "--scope", "divisors", "--cache", str(cache)]
        expected = (
            "backend error: genus number 9 does not divide class number 3 "
            "[request CLASSNO_CUBIC:0:-273:1729]\n"
        )
        rc, out = run_cli(argv + ["--backend-cmd", write_adapter(tmp_path, genus_adapter(log))])
        assert (rc, out, capsys.readouterr().err) == (cli.EXIT_BACKEND, "", expected)
        asked = log.read_text().splitlines()
        assert asked and "0 -273 1729" not in asked
        rc, out = run_cli(argv)  # every earlier field is cached now
        assert (rc, out, capsys.readouterr().err) == (cli.EXIT_BACKEND, "", expected)

    def test_bad_command_quoting_names_the_option(self, capsys):
        rc, out = run_cli(
            ["scan", "--family", "cubic", "--max", "100", "--eps", "1/20",
             "--backend-cmd", '"unterminated']
        )
        assert (rc, out) == (cli.EXIT_CONFIG, "")
        err = capsys.readouterr().err
        assert err == "config error: --backend-cmd '\"unterminated': No closing quotation\n"


class TestPublicApi:
    def test_all_names_resolve_and_star_import(self):
        import classmax

        namespace: dict = {}
        exec("from classmax import *", namespace)
        assert len(set(classmax.__all__)) == len(classmax.__all__)
        for name in classmax.__all__:
            assert namespace[name] is getattr(classmax, name)

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
    def test_import_limits_openblas_threads(self, preset, want):
        """A fresh `import classmax` sets OPENBLAS_NUM_THREADS to 1 before
        numpy loads, and keeps a value the caller has set."""
        import classmax

        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(classmax.__file__))
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = (
            "import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import classmax\n"
            "print(seen[0], os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        assert out.stdout.split() == [want, want]
