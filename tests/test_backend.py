import re
import stat
import sys
import textwrap

import pytest

from classmax.backend import DEFAULT_TIMEOUT, Backend, BackendError, ResultCache

FAKE_BACKEND = textwrap.dedent(
    """\
    #!/usr/bin/env python3
    import sys, time

    TABLE = {
        ("CLASSNO_CUBIC", "1", "-54", "-169"): "4",
        ("CLASSNO_CUBIC", "1", "-2", "-1"): "1",
        ("CLASSNO_CUBIC", "0", "-273", "1729"): "3",
        ("CLASSNO_CUBIC", "0", "-21", "-35"): "three",
        ("CLASSNO_CUBIC", "0", "-21", "7"): "0",
    }

    mode = sys.argv[1] if len(sys.argv) > 1 else "ok"
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        assert parts[0] == "Q"
        rid = parts[1]
        key = tuple(parts[2:])
        if mode == "sleep":
            time.sleep(10)
        if mode == "garbage":
            sys.stdout.write("?? nonsense\\n")
            sys.stdout.flush()
            continue
        if mode == "die":
            sys.exit(7)
        value = TABLE.get(key)
        if value is None:
            sys.stdout.write(f"A {rid} ERR unknown request\\n")
        else:
            sys.stdout.write(f"A {rid} OK {value}\\n")
        sys.stdout.flush()
    """
)


@pytest.fixture
def fake_backend_path(tmp_path):
    path = tmp_path / "fake_cas.py"
    path.write_text(FAKE_BACKEND)
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return str(path)


def make_backend(fake_path, tmp_path, mode="ok", timeout=10.0):
    return Backend(
        command=f"{sys.executable} {fake_path} {mode}",
        cache_path=str(tmp_path / "cache.txt"),
        timeout=timeout,
    )


def request_key(coeffs) -> str:
    """The key a failed request for `coeffs` is reported and cached under."""
    with pytest.raises(BackendError) as err:
        Backend(command="/nonexistent/adapter").classno_cubic(coeffs)
    return err.value.request_key


class TestRequestKey:
    def test_shapes(self):
        assert request_key((1, -2, -1)) == "CLASSNO_CUBIC:1:-2:-1"
        assert request_key((0, -273, 1729)) == "CLASSNO_CUBIC:0:-273:1729"

    def test_injective_on_distinct_args(self):
        keys = {
            request_key(args) for args in [(1, -2, -1), (1, -2, 1), (1, 2, -1), (-1, -2, -1)]
        }
        assert len(keys) == 4

    @pytest.mark.parametrize("coeffs", [(1, -2), (1, -2, -1, 0), (1, -2, -1.0)])
    def test_not_three_integers(self, coeffs):
        with pytest.raises(ValueError, match="three non-leading coefficients"):
            Backend(command="/nonexistent/adapter").classno_cubic(coeffs)


class TestQueries:
    def test_classno_cubic(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path) as bk:
            assert bk.classno_cubic((1, -54, -169)) == 4
            assert bk.classno_cubic((1, -2, -1)) == 1

    def test_cache_survives_process_restart(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path) as bk:
            assert bk.classno_cubic((1, -2, -1)) == 1
        # no command at all: the answer must come from the cache file
        bk2 = Backend(command=None, cache_path=str(tmp_path / "cache.txt"))
        assert bk2.classno_cubic((1, -2, -1)) == 1

    def test_uncached_without_command_fails(self, tmp_path):
        bk = Backend(command=None, cache_path=str(tmp_path / "cache.txt"))
        with pytest.raises(BackendError):
            bk.classno_cubic((1, -54, -169))

    def test_err_reply_surfaces_key(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path) as bk:
            with pytest.raises(BackendError) as err:
                bk.classno_cubic((0, -3, 1))
            assert "CLASSNO_CUBIC:0:-3:1" in str(err.value)

    @pytest.mark.parametrize(
        "coeffs, genus_number, message",
        [
            ((0, -3, 1), 1, "unknown request"),
            ((0, -21, -35), 1, "non-integer class number 'three'"),
            ((0, -21, 7), 1, "non-positive class number 0"),
            ((0, -273, 1729), 9, "genus number 9 does not divide class number 3"),
        ],
        ids=["err", "non-integer", "non-positive", "genus"],
    )
    def test_rejected_reply_is_not_cached(
        self, fake_backend_path, tmp_path, coeffs, genus_number, message
    ):
        key = "CLASSNO_CUBIC:" + ":".join(map(str, coeffs))
        with make_backend(fake_backend_path, tmp_path) as bk:
            with pytest.raises(BackendError) as err:
                bk.classno_cubic(coeffs, genus_number)
            assert str(err.value) == f"{message} [request {key}]"
            assert bk.cache.get(key) is None
            assert bk.classno_cubic((1, -2, -1)) == 1
        cache_file = tmp_path / "cache.txt"
        assert [line.split(",")[0] for line in cache_file.read_text().splitlines()] == [
            "CLASSNO_CUBIC:1:-2:-1"
        ]
        with pytest.raises(BackendError, match="no backend command configured"):
            Backend(command=None, cache_path=str(cache_file)).classno_cubic(coeffs, genus_number)

    @pytest.mark.parametrize(
        "cached, genus_number, message",
        [
            ("3", 9, "genus number 9 does not divide class number 3"),
            ("three", 1, "non-integer class number 'three'"),
            ("-3", 1, "non-positive class number -3"),
        ],
        ids=["genus", "non-integer", "non-positive"],
    )
    def test_cached_value_is_checked_on_read(self, tmp_path, cached, genus_number, message):
        """A cache written by an earlier version may hold a value that was
        never checked: it is rejected on read, and no process is asked."""
        cache_file = tmp_path / "cache.txt"
        cache_file.write_text(f"CLASSNO_CUBIC:0:-273:1729,{cached},1\n")
        bk = Backend(command="/nonexistent/adapter", cache_path=str(cache_file))
        expected = f"{message} [request CLASSNO_CUBIC:0:-273:1729]"
        with pytest.raises(BackendError, match=re.escape(expected)):
            bk.classno_cubic((0, -273, 1729), genus_number)

    def test_unstartable_command_surfaces_key(self, tmp_path):
        bk = Backend(command="/nonexistent/adapter", cache_path=str(tmp_path / "cache.txt"))
        with pytest.raises(BackendError) as err:
            bk.classno_cubic((1, -2, -1))
        assert err.value.request_key == "CLASSNO_CUBIC:1:-2:-1"
        assert "/nonexistent/adapter" in str(err.value)

    def test_timeout(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path, mode="sleep", timeout=0.3) as bk:
            with pytest.raises(BackendError) as err:
                bk.classno_cubic((1, -54, -169))
            assert "timeout" in str(err.value)

    def test_malformed_reply(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path, mode="garbage") as bk:
            with pytest.raises(BackendError) as err:
                bk.classno_cubic((1, -54, -169))
            assert "malformed" in str(err.value)

    def test_process_death(self, fake_backend_path, tmp_path):
        with make_backend(fake_backend_path, tmp_path, mode="die") as bk:
            with pytest.raises(BackendError):
                bk.classno_cubic((1, -54, -169))

    def test_reads_no_environment(self, fake_backend_path, tmp_path, monkeypatch):
        """The CLI flags are the only settings: variables named like them
        are ignored."""
        monkeypatch.setenv("CLASSMAX_BACKEND_CMD", f"{sys.executable} {fake_backend_path} ok")
        monkeypatch.setenv("CLASSMAX_CACHE", str(tmp_path / "envcache.txt"))
        monkeypatch.setenv("CLASSMAX_TIMEOUT", "5")
        with Backend() as bk:
            assert (bk.command, bk.cache.path, bk.timeout) == (None, None, DEFAULT_TIMEOUT)
            with pytest.raises(BackendError, match="no backend command configured"):
                bk.classno_cubic((1, -54, -169))
        assert not (tmp_path / "envcache.txt").exists()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.txt")
        cache = ResultCache(path)
        cache.put("CLASSNO_CUBIC:1:-54:-169", "4")
        reloaded = ResultCache(path)
        assert reloaded.get("CLASSNO_CUBIC:1:-54:-169") == "4"

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "CLASSNO_CUBIC:1:-54:-169,2,100\nCLASSNO_CUBIC:1:-54:-169,4,200\n"
        )
        assert ResultCache(str(path)).get("CLASSNO_CUBIC:1:-54:-169") == "4"

    def test_torn_tail_line_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("CLASSNO_CUBIC:1:-54:-169,4,100\nCLASSNO_CUBIC:1:-2:-1")
        assert ResultCache(str(path)).get("CLASSNO_CUBIC:1:-54:-169") == "4"
        assert ResultCache(str(path)).get("CLASSNO_CUBIC:1:-2:-1") is None

    def test_put_after_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("CLASSNO_CUBIC:1:-2:1,1,1700000000\nCLASSNO_CUBIC:0:-21:-35,1")
        ResultCache(str(path)).put("CLASSNO_CUBIC:0:-21:7", "3")
        cache = ResultCache(str(path))
        assert cache.get("CLASSNO_CUBIC:0:-21:7") == "3"
        assert cache.get("CLASSNO_CUBIC:0:-21:-35") is None
        assert cache.get("CLASSNO_CUBIC:1:-2:1") == "1"

    def test_torn_line_without_integer_timestamp_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("SUBCYCLO:7:3,x^3+x^2-2*x-1,100\nSUBCYCLO:91:3,x^3-a,x^3")
        cache = ResultCache(str(path))
        assert cache.get("SUBCYCLO:7:3") == "x^3+x^2-2*x-1"
        assert cache.get("SUBCYCLO:91:3") is None

    def test_result_may_contain_commas(self, tmp_path):
        path = str(tmp_path / "c.txt")
        cache = ResultCache(path)
        cache.put("SUBCYCLO:91:3", "x^3-a,x^3-b")
        assert ResultCache(path).get("SUBCYCLO:91:3") == "x^3-a,x^3-b"

    def test_compact_dedups(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "K:1,a,1\nK:1,b,2\nK:2,c,3\n"
        )
        cache = ResultCache(str(path))
        kept = cache.compact()
        assert kept == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert ResultCache(str(path)).get("K:1") == "b"

    def test_memory_only(self):
        cache = ResultCache(None)
        cache.put("K:1", "x")
        assert cache.get("K:1") == "x"

    def test_unusable_path_is_a_value_error(self, tmp_path):
        path = str(tmp_path / "missing" / "c.txt")
        cache = ResultCache(path)
        unwritable = re.escape(f"cannot write cache {path}: No such file")
        with pytest.raises(ValueError, match=unwritable):
            cache.put("K:1", "x")
        with pytest.raises(ValueError, match=unwritable):
            cache.compact()
        with pytest.raises(ValueError, match=re.escape(f"cannot read cache {tmp_path}: Is a")):
            ResultCache(str(tmp_path))
