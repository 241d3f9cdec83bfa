"""The system under test as real OS processes: spawn, probe, tear down.

Each ``serve``/``router`` process is started with ``--port 0`` and a
port file inside the benchmark's run directory; it is ready once the
file names its port.  Teardown terminates, then kills, every process
and every descendant it left (process-executor workers, the resource
tracker), and reports any snapshot-ring shared-memory segment a
``serve`` process left behind.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.service.client import ServiceClient

HOST = "127.0.0.1"
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0
SHM_DIR = Path("/dev/shm")


@dataclass
class SutProcess:
    role: str
    popen: subprocess.Popen
    port_file: Path
    port: int = 0

    @property
    def pid(self) -> int:
        return self.popen.pid


class System:
    """The processes of one set-up; use as a context manager so that
    teardown runs even when the run fails."""

    def __init__(self, root: Path, run_dir: Path, *, traced: bool) -> None:
        self.root = root
        self.run_dir = run_dir
        self.traced = traced
        self.procs: list[SutProcess] = []
        self.leaked_shm: list[str] = []
        self.stray_pids: list[int] = []
        self._serial = 0

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc: object) -> None:
        self.teardown()

    # -- start -----------------------------------------------------------
    def spawn(self, role: str, *args: str) -> SutProcess:
        """Start one ``serve`` or ``router`` process (not yet ready)."""
        self._serial += 1
        stem = f"{role}-{self._serial}"
        port_file = self.run_dir / f"{stem}.port"
        port_file.unlink(missing_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.traced:
            env["PERFBENCH_SPANS_DIR"] = str(self.run_dir)
            head = [sys.executable, str(self.root / "perfbench" / "launcher.py")]
        else:
            head = [sys.executable, "-m", "repro"]
        with open(self.run_dir / f"{stem}.log", "wb") as log:
            popen = subprocess.Popen(
                [*head, role, "--host", HOST, "--port", "0",
                 "--port-file", str(port_file), *args],
                env=env, cwd=self.root,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        proc = SutProcess(role, popen, port_file)
        self.procs.append(proc)
        return proc

    def wait_ready(self, *procs: SutProcess) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        for proc in procs:
            while True:
                text = proc.port_file.read_text().strip() if proc.port_file.exists() else ""
                if text:
                    proc.port = int(text)
                    break
                if proc.popen.poll() is not None:
                    raise RuntimeError(
                        f"{proc.role} exited with {proc.popen.returncode} "
                        "before it was ready"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{proc.role} was not ready in time")
                time.sleep(0.005)

    # -- probes ----------------------------------------------------------
    def status(self) -> dict[int, dict]:
        """The ``status`` reply of every process, by pid."""
        replies = {}
        for proc in self.procs:
            with ServiceClient(HOST, proc.port, timeout=60.0) as client:
                replies[proc.pid] = client.status()
        return replies

    def pids(self) -> list[int]:
        """Every live process of the system, descendants included."""
        return sorted(descendants([proc.pid for proc in self.procs]))

    def cpu_s(self) -> float:
        """CPU time (user + system) used so far by every live process
        of the system, in seconds."""
        return sum(cpu_ticks(pid) for pid in self.pids()) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        """Summed peak resident set (``VmHWM``) of every process, in MB."""
        return sum(vm_hwm_kb(pid) for pid in self.pids()) / 1024.0

    # -- stop ------------------------------------------------------------
    def teardown(self) -> None:
        """Terminate, then kill, every process and its descendants; wait
        for all of them; record leaked shared-memory segments."""
        if not self.procs:
            return
        family = set(descendants([proc.pid for proc in self.procs]))
        for proc in reversed(self.procs):  # the router before its backends
            if proc.popen.poll() is None:
                proc.popen.send_signal(signal.SIGTERM)
            try:
                proc.popen.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.popen.kill()
                proc.popen.wait(STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        stray = [pid for pid in family if _alive(pid)]
        while stray and time.monotonic() < deadline:
            time.sleep(0.01)
            stray = [pid for pid in stray if _alive(pid)]
        for pid in stray:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.stray_pids.extend(stray)
        for proc in self.procs:
            if proc.role != "serve":
                continue
            for segment in SHM_DIR.glob(f"repro-ring-{proc.pid}-*"):
                self.leaked_shm.append(segment.name)
                segment.unlink(missing_ok=True)
        self.procs = []


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


def descendants(roots: list[int]) -> set[int]:
    """``roots`` plus every live process descending from them."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if fields[0] != b"Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: set[int] = set()
    todo = [pid for pid in roots if _alive(pid)]
    while todo:
        pid = todo.pop()
        if pid not in found:
            found.add(pid)
            todo.extend(children.get(pid, []))
    return found


def cpu_ticks(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return 0
    return int(fields[11]) + int(fields[12])  # utime, stime


def vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests so far, in seconds."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def host_fingerprint() -> dict:
    """Cores, CPU model, interpreter and numpy versions, load at start."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }
