"""Bridge to an external computer-algebra process, with a persistent cache.

Wire protocol (newline-delimited text, one request in flight):

    request:  Q <id> CLASSNO_CUBIC <c2> <c1> <c0>
              Q <id> CLASSNO_QUAD <D>
    reply:    A <id> OK <value>
              A <id> ERR <message>

CLASSNO_QUAD returns the ordinary class number for D < 0 and the narrow
(restricted-sense) class number for D > 0.

The cache file is append-only text, `<key>,<result>,<timestamp>` per line,
last entry winning; compaction rewrites it and is an explicit CLI action.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import threading
import time
from contextlib import contextmanager

DEFAULT_TIMEOUT = 60.0

KINDS = ("CLASSNO_CUBIC", "CLASSNO_QUAD")


class BackendError(Exception):
    """Backend failure (timeout, malformed reply, process death), with the key."""

    def __init__(self, message: str, request_key: str | None = None):
        self.request_key = request_key
        if request_key:
            message = f"{message} [request {request_key}]"
        super().__init__(message)


def canonical_key(kind: str, args: tuple[int, ...]) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown request kind {kind!r}")
    return ":".join([kind, *[str(a) for a in args]])


@contextmanager
def _cache_file(path: str, verb: str):
    """Raise an OSError on the cache file (a missing directory, no
    permission) as a ValueError naming the path: a bad setting."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot {verb} cache {path}: {exc.strerror}") from exc


class ResultCache:
    """Append-only text cache; safe to reload after a crash mid-write."""

    def __init__(self, path: str | None):
        self.path = path
        self._data: dict[str, str] = {}
        if path and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        with _cache_file(self.path, "read"), open(self.path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n")
                if not line:
                    continue
                try:
                    key, rest = line.split(",", 1)
                    result, ts = rest.rsplit(",", 1)
                    int(ts)
                except ValueError:
                    continue  # torn tail line from a crash
                self._data[key] = result

    def get(self, key: str) -> str | None:
        return self._data.get(key)

    def put(self, key: str, result: str) -> None:
        self._data[key] = result
        if not self.path:
            return
        line = f"{key},{result},{int(time.time())}\n"
        with _cache_file(self.path, "write"), open(self.path, "ab+") as fh:
            if fh.seek(0, os.SEEK_END) > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    line = "\n" + line  # never glue onto a torn tail line
            fh.write(line.encode("utf-8"))
            fh.flush()
            os.fsync(fh.fileno())

    def compact(self) -> int:
        """Rewrite with one line per key; returns the number of entries kept."""
        if not self.path:
            return len(self._data)
        tmp = self.path + ".tmp"
        now = int(time.time())
        with _cache_file(self.path, "write"):
            with open(tmp, "w", encoding="utf-8") as fh:
                for key in sorted(self._data):
                    fh.write(f"{key},{self._data[key]},{now}\n")
            os.replace(tmp, self.path)
        return len(self._data)


class Backend:
    """One external CAS process plus the shared result cache."""

    def __init__(
        self,
        command: str | None = None,
        cache_path: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
    ):
        self.command = command
        self.timeout = timeout
        self.cache = ResultCache(cache_path)
        self._proc: subprocess.Popen | None = None
        self._buf = b""
        self._next_id = 1
        self._lock = threading.Lock()

    # -- process plumbing ---------------------------------------------------

    def _ensure_proc(self, key: str) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        if not self.command:
            raise BackendError("no backend command configured and result not cached")
        self._buf = b""
        try:
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise BackendError(f"cannot start backend {self.command!r}: {exc}", key) from exc
        return self._proc

    def _readline(self, proc: subprocess.Popen, key: str) -> str:
        deadline = time.monotonic() + self.timeout
        fd = proc.stdout.fileno()
        while True:
            nl = self._buf.find(b"\n")
            if nl >= 0:
                line = self._buf[:nl]
                self._buf = self._buf[nl + 1 :]
                return line.decode("utf-8", errors="replace")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._kill()
                raise BackendError(f"timeout after {self.timeout}s", key)
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                code = proc.poll()
                self._kill()
                raise BackendError(f"backend closed stdout (exit={code})", key)
            self._buf += chunk

    def _kill(self) -> None:
        if self._proc is not None:
            try:
                self._proc.kill()
                self._proc.wait(timeout=5)
            except Exception:
                pass
            self._proc = None
            self._buf = b""

    def close(self) -> None:
        with self._lock:
            self._kill()

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries ------------------------------------------------------------

    def query(self, kind: str, args: tuple[int, ...]) -> str:
        """Cache-first single query; raises BackendError on any backend
        failure, and ValueError if the cache file cannot be written."""
        key = canonical_key(kind, args)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        with self._lock:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
            proc = self._ensure_proc(key)
            req_id = self._next_id
            self._next_id += 1
            line = f"Q {req_id} {kind} {' '.join(str(a) for a in args)}\n"
            try:
                proc.stdin.write(line.encode("utf-8"))
                proc.stdin.flush()
            except (BrokenPipeError, OSError) as exc:
                code = proc.poll()
                self._kill()
                raise BackendError(f"backend pipe broke (exit={code}): {exc}", key)
            reply = self._readline(proc, key)
            parts = reply.split(" ", 3)
            if len(parts) < 3 or parts[0] != "A":
                self._kill()
                raise BackendError(f"malformed reply {reply!r}", key)
            if parts[1] != str(req_id):
                self._kill()
                raise BackendError(f"reply id mismatch: {reply!r}", key)
            if parts[2] == "OK" and len(parts) == 4:
                self.cache.put(key, parts[3])
                return parts[3]
            if parts[2] == "ERR":
                raise BackendError(f"backend error: {parts[3] if len(parts) > 3 else ''}", key)
            self._kill()
            raise BackendError(f"malformed reply {reply!r}", key)

    def _query_int(self, kind: str, args: tuple[int, ...]) -> int:
        text = self.query(kind, args)
        try:
            value = int(text.strip())
        except ValueError:
            raise BackendError(f"non-integer class number {text!r}", canonical_key(kind, args))
        if value < 1:
            raise BackendError(f"non-positive class number {value}", canonical_key(kind, args))
        return value

    def classno_cubic(self, coeffs: tuple[int, int, int], genus_number: int = 1) -> int:
        """H of the field x^3 + c2 x^2 + c1 x + c0; a reply that the field's
        genus number does not divide is a BackendError."""
        if len(coeffs) != 3 or not all(isinstance(c, int) for c in coeffs):
            raise ValueError("CLASSNO_CUBIC takes the three non-leading coefficients")
        value = self._query_int("CLASSNO_CUBIC", tuple(coeffs))
        if value % genus_number:
            raise BackendError(
                f"genus number {genus_number} does not divide class number {value}",
                canonical_key("CLASSNO_CUBIC", tuple(coeffs)),
            )
        return value

    def classno_quad(self, d: int) -> int:
        from .discriminants import is_fundamental

        if not is_fundamental(d):
            raise ValueError(f"{d} is not a fundamental discriminant")
        return self._query_int("CLASSNO_QUAD", (d,))
