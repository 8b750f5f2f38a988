"""The two transports: the protocol object in process, or a spawned
``python -m repro serve`` process tree behind one TCP connection."""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.service import HashRing, ServiceProtocol

#: Seconds a spawned server gets to print its banner, and to drain on exit.
SPAWN_TIMEOUT = 60.0
EXIT_TIMEOUT = 20.0


def _plain_names(count: int) -> list[str]:
    return [f"s{i}" for i in range(count)]


class InProcessServer:
    """``ServiceProtocol.handle_line``: the stdio shape without the pipe."""

    def __init__(self):
        self.protocol = ServiceProtocol()

    def roundtrip(self, line: str) -> str:
        return self.protocol.handle_line(line)

    def session_names(self, count: int) -> list[str]:
        return _plain_names(count)

    def rss_mb(self) -> float | None:
        return None  # the harness process itself; run.py reads ru_maxrss

    def close(self) -> None:
        self.protocol.close()


class ServerTree:
    """``repro serve --port 0 [--workers N]`` plus one client connection.

    The server runs in its own process group, so ``close`` can always reap
    the whole tree — front end and workers — also after a failure.
    """

    def __init__(self, repo_root: Path, out_dir: Path, workers: int | None):
        self.workers = workers
        self.worker_pids: list[int] = []
        self.sock: socket.socket | None = None
        self._reader = None
        self._spool: Path | None = None
        out_dir.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if workers is not None:
            # The spool is the one non-default setting: it is a path, and
            # the default (a fresh directory under /tmp) leaves the checkout.
            self._spool = out_dir / f"spool-{os.getpid()}-{time.monotonic_ns()}"
            argv += ["--workers", str(workers), "--spool", str(self._spool)]
        env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        # Python's default is to cache bytecode; without the cache every
        # spawn recompiles the program and `setup_s` reads 0.86 s, not 0.57 s.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._log = open(out_dir / "server.log", "ab")
        self.process = subprocess.Popen(
            argv, cwd=repo_root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log, start_new_session=True,
        )
        try:
            self.host, self.port = self._read_banner()
            self.sock = socket.create_connection((self.host, self.port), timeout=120.0)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self.sock.makefile("rb")
        except BaseException:
            self.close()
            raise

    def _read_banner(self) -> tuple[str, int]:
        """Parse ``repro serve cluster: w0=PID w1=PID`` (cluster mode) and
        ``repro serve listening on HOST:PORT``."""
        watchdog = threading.Timer(SPAWN_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            while True:
                line = self.process.stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(
                        "repro serve exited before listening "
                        f"(code {self.process.poll()}); see out/server.log"
                    )
                if line.startswith("repro serve cluster:"):
                    self.worker_pids = [int(p) for p in re.findall(r"=(\d+)", line)]
                match = re.match(r"repro serve listening on (\S+):(\d+)\s*$", line)
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            watchdog.cancel()

    def roundtrip(self, line: str) -> str:
        self.sock.sendall(line.encode("utf-8") + b"\n")
        reply = self._reader.readline()
        if not reply:
            raise RuntimeError("server closed the connection")
        return reply.decode("utf-8")

    def session_names(self, count: int) -> list[str]:
        """Names that the router's ring places on ``count`` different
        workers, so the sessions really run in parallel processes."""
        if self.workers is None:
            return _plain_names(count)
        ring = HashRing([f"w{i}" for i in range(self.workers)])
        names: dict[str, str] = {}
        candidate = 0
        while len(names) < min(count, self.workers):
            names.setdefault(ring.lookup(f"s{candidate}"), f"s{candidate}")
            candidate += 1
        return sorted(names.values(), key=lambda name: int(name[1:]))

    def rss_mb(self) -> float | None:
        """Sum of the peak resident sizes (``VmHWM``) of the whole tree."""
        total_kb = 0
        for pid in [self.process.pid, *self.worker_pids]:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        """Ask for a graceful shutdown, then make sure the tree is gone."""
        try:
            if self.sock is not None and self.process.poll() is None:
                with contextlib.suppress(OSError, RuntimeError):
                    self.roundtrip('{"op": "shutdown"}')
                with contextlib.suppress(subprocess.TimeoutExpired):
                    self.process.wait(timeout=EXIT_TIMEOUT)
        finally:
            if self.sock is not None:
                with contextlib.suppress(OSError):
                    if self._reader is not None:
                        self._reader.close()
                    self.sock.close()
                self.sock = None
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
            self.process.stdout.close()
            self._log.close()
            deadline = time.monotonic() + EXIT_TIMEOUT
            while any(_running(pid) for pid in self.worker_pids):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"workers {self.worker_pids} did not exit")
                time.sleep(0.01)
            if self._spool is not None:
                shutil.rmtree(self._spool, ignore_errors=True)


def _running(pid: int) -> bool:
    """Is ``pid`` still executing?  (A zombie that nobody reaps has ended.)"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False
