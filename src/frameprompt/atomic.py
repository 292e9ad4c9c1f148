"""The one artifact writer and reader, and the record manifests are made of.

Every file the package writes goes through write_atomic, so a crash or a
failed run never leaves a half-written file, and the file gets the mode that
open(path, "wb") would give it (0666 less the umask). Every file it reads
goes through read_bytes, and json is parsed only here: each json input is
UTF-8 text holding one object with no repeated key (parse_json_object,
read_json_object), or the caller's error type, and is_int, is_finite and
is_text are the field checks its readers share. Both binary formats (.damw
weights, .dampb bundles) are one container: seal writes a 4-byte magic, a u32
version, the format's body and a u64 digest64 of the body, little-endian;
open_sealed checks the magic (BadMagicError), the version (FormatError) and
the digest (FingerprintMismatchError) before it hands the loader a Reader
over the body, so a cut, extended or edited file is refused before any
field is parsed (under 16 bytes, with TruncatedFileError).
Inside recording(), read_bytes notes the sha256 of each path's bytes at its
first read and write_atomic that of each blob's canonical_bytes, so a
command's manifest lists what it read (in read order) and wrote, whichever
loader opened it."""

import contextlib
import contextvars
import hashlib
import json
import os
import struct
import sys

from .errors import BadMagicError, FingerprintMismatchError, FormatError, TruncatedFileError

_record = contextvars.ContextVar("atomic.recording() scope")  # (inputs, outputs)


@contextlib.contextmanager
def recording():
    """Record reads and writes until the scope closes."""
    token = _record.set(({}, {}))
    try:
        yield
    finally:
        _record.reset(token)


def recorded() -> tuple[dict, dict]:
    """The open scope's (inputs, outputs), each path -> sha256; LookupError outside."""
    return _record.get()


def canonical_bytes(path: str, blob: bytes) -> bytes:
    """blob as a manifest hashes it: a json object loses its top-level seconds
    key, the one place an output holds wall-clock time; all else is as written."""
    if path.endswith(".json"):
        doc = json.loads(blob)
        if isinstance(doc, dict):
            doc.pop("seconds", None)
        return json.dumps(doc, sort_keys=True).encode("utf-8")
    return blob


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        blob = fh.read()
    if (record := _record.get(None)) is not None and path not in record[0]:
        record[0][path] = hashlib.sha256(blob).hexdigest()
    return blob


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
    if (record := _record.get(None)) is not None:
        record[1][path] = hashlib.sha256(canonical_bytes(path, blob)).hexdigest()


def write_json(path: str, doc):
    """doc as sorted, one-space-indented json with a final newline."""
    write_atomic(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8"))


def parse_json_object(text: str, where: str, what: str, error: type) -> dict:
    """The json object in text; error (a FramePromptError type) for invalid
    json, a repeated key, nesting past the recursion limit or any other
    value. where and what name the input in the message."""
    def unique(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise error(f"{where}: duplicate key {key!r} in {what}")
            seen.add(key)
        return dict(pairs)

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except ValueError as e:  # bad syntax, a BOM, or an integer over 4300 digits
        raise error(f"{where}: {what} is not valid json: {e}") from None
    except RecursionError:
        raise error(f"{where}: {what} nests too deeply") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: {what} is not a json object")
    return doc


def read_json_object(path: str, what: str, error: type = FormatError) -> dict:
    """The json object stored as UTF-8 text at path; what names the file."""
    return parse_json_object(read_text(path, error), path, what, error)


def read_text(path: str, error: type) -> str:
    """The UTF-8 text stored at path; error (a FramePromptError type) if it
    is not UTF-8."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def is_int(value) -> bool:
    """An int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """An int or float, not a bool, within float range: the comparison is exact,
    so NaN, the infinities and an integer that float() overflows on fail it."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def is_text(value) -> bool:
    """A str that encodes as UTF-8: one without the lone surrogates that json
    reads from escapes such as "\\ud800", which no file name or id holds."""
    return isinstance(value, str) and not any("\ud800" <= c <= "\udfff" for c in value)


def digest64(body) -> int:
    """The first 8 bytes of body's sha256 as a little-endian u64."""
    return int.from_bytes(hashlib.sha256(body).digest()[:8], "little")


def seal(magic: bytes, version: int, body: bytes) -> bytes:
    return magic + struct.pack("<I", version) + body + struct.pack("<Q", digest64(body))


class Reader:
    """Cursor over a sealed body; every value is little-endian."""

    def __init__(self, path: str, body: memoryview):
        self.path, self.body, self.pos = path, body, 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.body):
            raise TruncatedFileError(f"{self.path}: body ends at byte {len(self.body)}, "
                                     f"needed {self.pos + n}")
        self.pos += n
        return self.body[self.pos - n:self.pos]

    def unpack(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, what: str) -> str:
        """A u32 length and that many bytes of UTF-8; what names the field."""
        (n,) = self.unpack("I")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: {what} is not UTF-8 ({e.reason})") from None

    def end(self):
        if self.pos != len(self.body):
            raise FormatError(f"{self.path}: {len(self.body) - self.pos} trailing bytes")


def open_sealed(path: str, magic: bytes, version: int, what: str) -> Reader:
    """A Reader over the body of the sealed file at path; what names the
    format in a version error."""
    blob = memoryview(read_bytes(path))
    if len(blob) < 16:
        raise TruncatedFileError(f"{path}: ends at byte {len(blob)}, needed 16")
    if blob[:4] != magic:
        raise BadMagicError(f"{path}: bad magic")
    (found,) = struct.unpack_from("<I", blob, 4)
    if found != version:
        raise FormatError(f"{path}: unsupported {what} version {found}")
    body = blob[8:-8]  # a view: the digest reads the file's own bytes
    (stored,) = struct.unpack_from("<Q", blob, len(blob) - 8)
    if stored != (actual := digest64(body)):
        raise FingerprintMismatchError(
            f"{path}: digest mismatch: stored {stored:#x}, computed {actual:#x}")
    return Reader(path, body)
