"""Bridge to an external computer-algebra process, with a persistent cache.

Wire protocol (newline-delimited text, one request in flight):

    request:  Q <id> CLASSNO_CUBIC <c2> <c1> <c0>
    reply:    A <id> OK <value>
              A <id> ERR <message>

The cache file is append-only text, `<key>,<result>,<timestamp>` per line,
last entry winning; compaction rewrites it and is an explicit CLI action.
Only a reply that passes the class-number checks is cached, and a cached
value is checked again when it is read.
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


class BackendError(Exception):
    """Backend failure (timeout, malformed reply, process death), with the key."""

    def __init__(self, message: str, request_key: str | None = None):
        self.request_key = request_key
        if request_key:
            message = f"{message} [request {request_key}]"
        super().__init__(message)


def _class_number(text: str, genus_number: int, key: str) -> int:
    """The class number in a reply or cache entry: a positive integer that
    the field's genus number divides, else a BackendError naming `key`."""
    try:
        value = int(text.strip())
    except ValueError:
        raise BackendError(f"non-integer class number {text!r}", key)
    if value < 1:
        raise BackendError(f"non-positive class number {value}", key)
    if value % genus_number:
        raise BackendError(
            f"genus number {genus_number} does not divide class number {value}", key
        )
    return value


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
            raise BackendError("no backend command configured and result not cached", key)
        self._buf = b""
        try:
            argv = shlex.split(self.command)
        except ValueError as exc:  # unbalanced quotes: a bad setting
            raise ValueError(f"--backend-cmd {self.command!r}: {exc}") from exc
        try:
            self._proc = subprocess.Popen(
                argv,
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

    def _ask(self, key: str) -> str:
        """Send the request `key` names (its fields joined by spaces) and
        return the text of its OK reply; the caller holds the lock.  Raises
        BackendError on any backend failure."""
        proc = self._ensure_proc(key)
        req_id = self._next_id
        self._next_id += 1
        try:
            proc.stdin.write(f"Q {req_id} {key.replace(':', ' ')}\n".encode("utf-8"))
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
            return parts[3]
        if parts[2] == "ERR":
            raise BackendError(parts[3] if len(parts) > 3 else "", key)
        self._kill()
        raise BackendError(f"malformed reply {reply!r}", key)

    def classno_cubic(self, coeffs: tuple[int, int, int], genus_number: int = 1) -> int:
        """H of the field x^3 + c2 x^2 + c1 x + c0, from the cache or else the
        process.  A value that is not a positive integer, or that the field's
        genus number does not divide, is a BackendError naming the request;
        only a reply that passes is cached.  ValueError if the cache file
        cannot be written."""
        if len(coeffs) != 3 or not all(isinstance(c, int) for c in coeffs):
            raise ValueError("CLASSNO_CUBIC takes the three non-leading coefficients")
        key = ":".join(["CLASSNO_CUBIC", *map(str, coeffs)])
        text = self.cache.get(key)
        if text is None:
            with self._lock:
                text = self.cache.get(key)
                if text is None:
                    text = self._ask(key)
                    value = _class_number(text, genus_number, key)
                    self.cache.put(key, text)
                    return value
        return _class_number(text, genus_number, key)
