"""The one place output files are written.

Each file is written to a temporary name in its own directory and then
moved over the target with ``os.replace``, so a reader, or a rerun after an
interruption, finds either the previous file or the complete new one, never
a truncated one. Missing parent directories are created on the way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os


def make_dir(path) -> None:
    """Create directory ``path`` and its parents; '' names the working
    directory. Raises OSError when a component is not a directory."""
    if os.fspath(path):
        os.makedirs(path, exist_ok=True)


def write_bytes(path, data: bytes) -> None:
    """Atomically replace the file at ``path`` with ``data``."""
    path = os.fspath(path)
    make_dir(os.path.dirname(path))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """Header plus rows in the csv module's default dialect ("\\r\\n" line
    ends). Every row is formatted before the file is touched."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    write_bytes(path, buf.getvalue().encode())
