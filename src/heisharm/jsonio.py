"""Deterministic JSON reading/writing with atomic file replacement.

All reports and fixtures go through here so that identical inputs produce
byte-identical files: keys are sorted, floats use Python's shortest
round-trippable repr, and no timestamps or environment data are embedded.
Writes land in a temporary file in the target directory and are moved into
place with os.replace, so readers never observe a partial file; a write that
fails raises an OSError naming the target path, not the temporary file.
"""

import json
import os
import tempfile

__all__ = ["atomic_write_text", "write_json", "read_json"]


def atomic_write_text(path, text):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=d)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if isinstance(exc, OSError):
            exc.filename, exc.filename2 = path, None
        raise


def write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    atomic_write_text(path, text)
    return text


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
