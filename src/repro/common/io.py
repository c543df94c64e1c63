"""Crash-safe filesystem helpers: atomic documents and append-only logs.

Documents — manifests, traces, reports, summaries — go through
:func:`atomic_write`: the content lands in a temporary sibling file,
is fsync'ed, and is moved over the destination with :func:`os.replace`
— atomic on POSIX and Windows — so readers only ever observe the old
file or the complete new one.

Logs — the campaign journal and fleet-telemetry status files — are
JSON lines appended through :class:`JsonlLog` and parsed by
:func:`read_jsonl`.  A killed writer leaves at most one torn
final line, which each reader's policy tolerates and the next writer
trims before appending; the trim is safe because every log has one
writer at a time (the rule is spelled out on :class:`JsonlLog`).

Environmental write failures — a full disk (``ENOSPC``), a read-only
or permission-denied directory (``EACCES``/``EROFS``) — are reported
as :class:`~repro.common.errors.ReproError` naming the destination, so
a campaign that runs out of disk at cell 900 exits with one clean
``repro: error:`` line (exit code 2) instead of a raw ``OSError``
traceback; an atomic write removes its temporary file either way.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, BinaryIO, Dict, Iterator, List, Optional, TextIO, Tuple, Union,
)

from repro.common.errors import ReproError


def _write_error(path: Path, exc: OSError) -> ReproError:
    """Wrap an environmental write failure into a clean library error."""
    reason = exc.strerror or str(exc)
    return ReproError(f"cannot write {path}: {reason}")


@contextmanager
def atomic_write(
    path: Union[str, Path], encoding: str = "utf-8"
) -> Iterator[TextIO]:
    """Yield a text handle whose content replaces ``path`` atomically.

    The temporary file lives in the destination directory (``rename``
    across filesystems is not atomic), is flushed and fsync'ed before
    the rename, and is removed if the caller raises.  An ``OSError``
    from the write path itself — creating the temporary file, writing
    to it, or the final rename — surfaces as
    :class:`~repro.common.errors.ReproError`; non-IO exceptions raised
    by the caller propagate unchanged.
    """
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=str(parent), prefix=path.name + ".", suffix=".tmp"
        )
    except OSError as exc:
        raise _write_error(path, exc) from exc
    handle = os.fdopen(fd, "w", encoding=encoding)

    def discard() -> None:
        try:
            handle.close()
        except OSError:
            pass
        try:
            os.unlink(tmp_name)
        except OSError:
            pass

    try:
        yield handle
    except OSError as exc:
        # A failed write into the handle (ENOSPC mid-stream) is an
        # environment problem, not a caller bug: report it cleanly.
        discard()
        raise _write_error(path, exc) from exc
    except BaseException:
        discard()
        raise
    try:
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp_name, path)
    except OSError as exc:
        discard()
        raise _write_error(path, exc) from exc


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically replace ``path`` with ``text`` (write-then-rename)."""
    with atomic_write(path, encoding=encoding) as handle:
        handle.write(text)


class JsonlLog:
    """Append-only JSON-lines log: one sorted-key record per line.

    Opened lazily in append mode, creating parent directories, with an
    ``atexit`` close.  Opening truncates any bytes after the last
    newline (a torn record), which is safe only under the one-writer
    rule: the campaign runner holds ``campaign.lock`` over its journal,
    the parent owns ``grid.jsonl`` and the worker running cell *i* owns
    that cell's status file.
    Records are flushed; ``durable=True`` also fsyncs each one.  Any
    ``OSError`` becomes :class:`~repro.common.errors.ReproError`.
    """

    def __init__(self, path: Union[str, Path], durable: bool = False) -> None:
        self.path = Path(path)
        self.durable = durable
        self._handle: Optional[BinaryIO] = None

    def _open(self) -> BinaryIO:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = self.path.open("a+b")
        try:
            # Find the last newline by reading backward from the end.
            keep = end = handle.seek(0, os.SEEK_END)
            while keep > 0:
                start = max(0, keep - 4096)
                handle.seek(start)
                newline = handle.read(keep - start).rfind(b"\n")
                if newline >= 0:
                    keep = start + newline + 1
                    break
                keep = start
            if keep < end:
                handle.truncate(keep)
        except BaseException:
            handle.close()
            raise
        return handle

    def append(self, record: Dict[str, Any]) -> None:
        """Write ``record`` as one line and flush (and fsync if durable)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            if self._handle is None:
                self._handle = self._open()
                atexit.register(self.close)
            self._handle.write(line.encode("utf-8"))
            self._handle.flush()
            if self.durable:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise _write_error(self.path, exc) from exc

    def close(self) -> None:
        """Close the file (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            atexit.unregister(self.close)
            try:
                handle.close()
            except OSError as exc:
                raise _write_error(self.path, exc) from exc

    def __enter__(self) -> "JsonlLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(
    path: Union[str, Path]
) -> Tuple[List[Tuple[int, Dict[str, Any]]], List[int]]:
    """Decode every non-blank line of a JSON-lines file, in file order.

    Returns ``(records, bad)``: each JSON object with its 1-based line
    number, and the numbers of the lines that are not a JSON object.
    What a bad line means is the caller's policy; ``OSError``
    propagates.
    """
    records: List[Tuple[int, Dict[str, Any]]] = []
    bad: List[int] = []
    data = Path(path).read_bytes()
    for number, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append((number, record))
        else:
            bad.append(number)
    return records, bad
