"""Lifecycle of one ``repro serve`` child process.

The server is started from the checkout's ``src/`` with its shipped
defaults, pooling one ``.brx`` file. Readiness is its ``listening on
host:port`` line. CPU time and peak RSS (VmHWM) come from ``/proc``, which
any client on the host can read. It is stopped with the client protocol's
``shutdown`` op, which drains gracefully; a non-zero exit or a process
still alive after the drain budget fails the run.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"
READY = re.compile(r"listening on ([0-9.]+):(\d+)")
READY_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 30.0


class ServerError(RuntimeError):
    """The server failed to start, or did not stop cleanly."""


class ServerProcess:
    def __init__(self, brx: Path, log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--matrix", str(brx)],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_ready(self) -> int:
        while True:
            try:
                line = self._lines.get(timeout=READY_TIMEOUT_S)
            except queue.Empty:
                raise ServerError("repro serve printed no readiness line") from None
            if line is None:
                raise ServerError(f"repro serve exited early (code {self.proc.wait()})")
            match = READY.search(line)
            if match:
                return int(match.group(2))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User plus system CPU time of the server process."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server process."""
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def shutdown(self, client) -> None:
        """Drain through the client's ``shutdown`` op and check the exit."""
        try:
            if client is None or not client.shutdown_server():
                raise ServerError("server did not acknowledge shutdown")
            try:
                code = self.proc.wait(timeout=EXIT_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise ServerError("server still running after shutdown") from None
            if code != 0:
                raise ServerError(f"server exited with code {code}")
        finally:
            self.kill()

    def kill(self) -> None:
        """Make sure the process and its reader are gone."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=EXIT_TIMEOUT_S)
        self._reader.join(timeout=EXIT_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
