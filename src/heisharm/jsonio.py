"""Deterministic JSON reading/writing with atomic file replacement.

All reports and fixtures go through here so that identical inputs produce
byte-identical files: keys are sorted, floats use Python's shortest
round-trippable repr, and no timestamps or environment data are embedded.
Writes land in a temporary file in the target directory, created with
O_EXCL under a random name and the mode open() would give, and are moved
into place with os.replace, so readers never observe a partial file; a write
that fails removes the temporary file it created and raises an OSError
naming the target path, not the temporary file.
"""

import json
import os

__all__ = ["atomic_write_text", "write_json", "read_json"]

# O_BINARY (Windows only) keeps the C runtime from turning "\n" into "\r\n"
_TMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write_text(path, text):
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       ".tmp-" + os.urandom(8).hex())
    created = False
    try:
        fd = os.open(tmp, _TMP_FLAGS, 0o666)
        created = True
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if created:
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
