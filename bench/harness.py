"""
In-process request execution: one `latinpat.cli.main(argv)` call with
stdout read to the end by a streaming sink, timed from the call to its
return and to its first output line.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field

#: outputs larger than this are kept only as a hash and a line count
KEEP_TEXT_BYTES = 1 << 20


class Sink:
    """Stands in for sys.stdout: hashes everything, keeps small outputs."""

    def __init__(self):
        self.first_at: float | None = None
        self._hash = hashlib.sha256()
        self._parts: list[str] = []
        self._pending = 0
        self.lines = 0
        self.size = 0
        self.kept: list[str] | None = []

    def write(self, s: str) -> int:
        if self.first_at is None and s:
            self.first_at = time.perf_counter()
        self._parts.append(s)
        self._pending += len(s)
        if self._pending > 1 << 16:
            self._drain()
        return len(s)

    def flush(self) -> None:
        pass

    def _drain(self) -> None:
        chunk = "".join(self._parts)
        self._parts = []
        self._pending = 0
        self._hash.update(chunk.encode())
        self.lines += chunk.count("\n")
        self.size += len(chunk)
        if self.kept is not None:
            if self.size > KEEP_TEXT_BYTES:
                self.kept = None
            else:
                self.kept.append(chunk)

    def close(self) -> tuple[str, str | None]:
        self._drain()
        return self._hash.hexdigest(), None if self.kept is None else "".join(self.kept)


@dataclass
class Record:
    """One request: what was asked, what came back, how long it took."""

    argv: list[str]
    kind: str
    expect: dict = field(default_factory=dict)
    rc: int | None = None
    error: str = ""
    #: perf_counter at the call, and seconds from the call to its return
    started: float = 0.0
    wall: float = 0.0
    first_line: float | None = None
    lines: int = 0
    sha256: str = ""
    text: str | None = None
    cpu_self: float = 0.0
    cpu_children: float = 0.0

    def json(self):
        return json.loads(self.text)


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_request(main, argv: list[str], kind: str, expect: dict | None = None) -> Record:
    """
    Run one CLI request in this process.  A non-zero exit, an exception or
    SystemExit is recorded on the result, never raised, so a failed answer
    counts as a failed operation instead of ending the run.
    """
    rec = Record(list(argv), kind, dict(expect or {}))
    out, err = Sink(), Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    c0, k0 = time.process_time(), children_cpu()
    t0 = time.perf_counter()
    try:
        rec.rc = main(list(argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        rec.rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # the run must go on; the check counts it
        rec.error = f"{type(exc).__name__}: {exc}"
    finally:
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = saved
    rec.cpu_self = time.process_time() - c0
    rec.cpu_children = children_cpu() - k0
    rec.started, rec.wall = t0, t1 - t0
    if out.first_at is not None:
        rec.first_line = out.first_at - t0
    rec.sha256, rec.text = out.close()
    rec.lines = out.lines
    _, err_text = err.close()
    if err_text and rec.rc:
        rec.error = rec.error or err_text.strip()[-500:]
    return rec


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


_PAGE_MIB = resource.getpagesize() / (1 << 20)


def rss_mb() -> float:
    """This process's resident set now, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MIB
