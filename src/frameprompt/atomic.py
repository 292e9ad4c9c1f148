"""The one artifact writer: every file the package writes goes through
write_atomic, so a crash or a failed run never leaves a half-written file."""

import os
import tempfile


def write_atomic(path: str, blob: bytes):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
