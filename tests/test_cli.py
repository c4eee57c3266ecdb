import io
import json
from contextlib import redirect_stdout

import pytest

from classmax import cli


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
            for shards in (1, 2, 5):
                rc, out = run_cli(["scan", *argv, "--shards", str(shards)])
                assert rc == 0
                assert "D_K=" in out or "f=" in out
                if base is None:
                    base = out
                else:
                    assert out == base, (argv, shards)

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
        """Raw metrics compare at eps 0, so the preset starting value 1 must
        too; any --eps then only changes the header line."""
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

    def test_bad_eps(self):
        rc, _ = run_cli(["scan", "--family", "quad-imaginary", "--max", "100", "--eps", "x"])
        assert rc == cli.EXIT_CONFIG

    def test_argparse_exit_code(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["scan", "--family", "martian", "--max", "100"])
        assert err.value.code == cli.EXIT_CONFIG


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


class TestThresholdCommand:
    def test_rejects_shards_below_one(self):
        rc, out = run_cli(
            ["threshold", "--family", "quad-imaginary", "--max", "2000", "--grid", "1/4",
             "--shards", "0"]
        )
        assert rc == cli.EXIT_CONFIG and out == ""

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


class TestBackendExitCode:
    def test_backend_error_is_exit_3(self, tmp_path):
        rc, _ = run_cli(
            ["scan", "--family", "cubic", "--max", "400", "--eps", "1/100",
             "--backend-cmd", "false", "--cache", str(tmp_path / "c.txt")]
        )
        assert rc == cli.EXIT_BACKEND
