"""The one artifact writer and reader.

Every file the package writes goes through write_atomic, so a crash or a
failed run never leaves a half-written file, and the file gets the mode that
open(path, "wb") would give it (0666 less the umask). Both binary loaders
(.damw weights and .dampb bundles) parse through Reader, so a file that ends
early raises TruncatedFileError and one with trailing bytes FormatError. The
json sidecars and run summaries are written by write_json and read back
through read_json_object, which raises FormatError for anything but a json
object. read_text reads the text inputs (descriptors, configs, the csv files
report aggregates) and raises the caller's error type for bytes that are not
UTF-8."""

import json
import os
import struct

from .errors import FormatError, TruncatedFileError


def write_atomic(path: str, blob: bytes):
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}")
    # exclusive create, as mkstemp does, but with the umask applied as by open()
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc):
    """doc as sorted, one-space-indented json with a final newline."""
    write_atomic(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8"))


def read_json_object(path: str, what: str) -> dict:
    """The json object stored at path; what names the file in the error."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        doc = json.loads(blob)
    except ValueError as e:  # invalid json or invalid utf-8
        raise FormatError(f"{path}: {what} is not valid json: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: {what} is not a json object")
    return doc


def read_text(path: str, error: type) -> str:
    """The UTF-8 text stored at path; error (a FramePromptError type) if it
    is not UTF-8."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


class Reader:
    """Cursor over a whole artifact; every value is little-endian."""

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedFileError(f"{self.path}: ends at byte {len(self.blob)}, "
                                     f"needed {self.pos + n}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def end(self):
        if self.pos != len(self.blob):
            raise FormatError(f"{self.path}: {len(self.blob) - self.pos} trailing bytes")
