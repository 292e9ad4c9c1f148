import ast
import hashlib
import os
import stat
import struct

import pytest

from frameprompt import atomic, encoder, kernels, prompt
from frameprompt.atomic import open_sealed, seal, write_atomic, write_json
from frameprompt.errors import (BadMagicError, FingerprintMismatchError, FormatError,
                                TruncatedFileError)


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_written_file_gets_open_mode_under_umask(tmp_path, umask_022):
    path = tmp_path / "out.bin"
    write_atomic(str(path), b"abc")
    assert path.read_bytes() == b"abc"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
    # replacing an existing file keeps the same mode rule
    write_atomic(str(path), b"defg")
    assert path.read_bytes() == b"defg"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "keep.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        write_atomic(str(path), "not bytes")
    assert path.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["keep.bin"]

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(OSError):
        write_atomic(str(path), b"new")
    assert path.read_bytes() == b"old"
    assert sorted(os.listdir(tmp_path)) == ["keep.bin"]


def test_reader_takes_unpacks_and_checks_the_end(tmp_path):
    path = tmp_path / "blob.bin"
    body = b"MAGC" + (7).to_bytes(4, "little") + b"\x01\x02" + b"xy"
    write_atomic(str(path), seal(b"TEST", 1, body))
    r = open_sealed(str(path), b"TEST", 1, "test file")
    assert r.take(4) == b"MAGC"
    assert r.unpack("IBB") == (7, 1, 2)
    with pytest.raises(FormatError, match="2 trailing bytes"):
        r.end()
    with pytest.raises(TruncatedFileError):
        r.take(3)
    assert r.take(2) == b"xy"
    r.end()


def test_a_sealed_file_is_checked_before_its_body_is_read(tmp_path):
    """seal lays out magic, u32 version, body, then the digest of the body;
    open_sealed refuses a short file, then a bad magic, then another
    version, then a body its digest does not match."""
    body = bytes(range(40))
    blob = seal(b"TEST", 3, body)
    digest = int.from_bytes(hashlib.sha256(body).digest()[:8], "little")
    assert blob == b"TEST" + struct.pack("<I", 3) + body + struct.pack("<Q", digest)
    assert atomic.digest64(body) == digest
    path = tmp_path / "f.bin"
    for bad, error, message in (
            (blob[:15], TruncatedFileError, "ends at byte 15"),
            (b"NOPE" + blob[4:], BadMagicError, "bad magic"),
            (blob[:4] + struct.pack("<I", 2) + blob[8:], FormatError,
             "unsupported test file version 2"),
            (blob[:20] + b"\xff" + blob[21:], FingerprintMismatchError, "digest mismatch"),
            (blob[:-1], FingerprintMismatchError, "digest mismatch"),
            (blob + b"\x00", FingerprintMismatchError, "digest mismatch")):
        path.write_bytes(bad)
        with pytest.raises(error, match=message):
            open_sealed(str(path), b"TEST", 3, "test file")
    path.write_bytes(blob)
    assert bytes(open_sealed(str(path), b"TEST", 3, "test file").take(40)) == body
    # an empty body seals to the 16 bytes of header and digest
    path.write_bytes(seal(b"TEST", 3, b""))
    open_sealed(str(path), b"TEST", 3, "test file").end()


def _sha(blob):
    return hashlib.sha256(blob).hexdigest()


def test_recording_keeps_first_reads_and_canonical_writes(tmp_path):
    src = str(tmp_path / "in.bin")
    out = str(tmp_path / "run.summary.json")
    later = str(tmp_path / "later.bin")
    write_atomic(src, b"abc")
    write_atomic(later, b"later")
    atomic.read_bytes(src)
    with pytest.raises(LookupError):
        atomic.recorded()
    with atomic.recording():
        atomic.read_bytes(src)
        write_atomic(src, b"overwritten")
        with pytest.raises(TruncatedFileError):  # a loader's read is one more read
            open_sealed(src, b"TEST", 1, "test file")
        write_json(out, {"a": 1, "seconds": [0.5]})
        inputs, outputs = atomic.recorded()
    # the bytes first read, though the run then wrote over them
    assert inputs == {src: _sha(b"abc")}
    assert outputs == {src: _sha(b"overwritten"), out: _sha(b'{"a": 1}')}
    # once the scope has closed, reads and writes land in no record
    atomic.read_bytes(later)
    write_atomic(later, b"again")
    assert inputs == {src: _sha(b"abc")} and later not in outputs
    with pytest.raises(LookupError):
        atomic.recorded()


def test_canonical_bytes_drop_only_top_level_seconds():
    assert atomic.canonical_bytes("m.csv", b"seconds\n") == b"seconds\n"
    doc = b'{"z": {"seconds": 1}, "seconds": 2, "a": 3}'
    assert atomic.canonical_bytes("s.json", doc) == b'{"a": 3, "z": {"seconds": 1}}'
    assert atomic.canonical_bytes("l.json", b"[1,  2]") == b"[1, 2]"


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _calls(tree, name):
    """Line numbers of the name(...) and <expr>.name(...) calls in a tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def _opens(path):
    """Line numbers of the open(...) and <module>.open(...) calls in a file."""
    return _calls(_tree(path), "open")


def test_only_atomic_opens_files():
    """Every read goes through read_bytes and every write through
    write_atomic, so no module can open a file that its manifest misses."""
    pkg = os.path.dirname(atomic.__file__)
    assert _opens(atomic.__file__)  # the scan sees the calls it looks for
    found = {name: _opens(os.path.join(pkg, name)) for name in sorted(os.listdir(pkg))
             if name.endswith(".py") and name != "atomic.py"}
    assert "cli.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_atomic_parses_json():
    """Every json input is parsed by atomic.parse_json_object, so each shares
    its rules: UTF-8 text, one object, no repeated key."""
    pkg = os.path.dirname(atomic.__file__)
    assert _calls(_tree(atomic.__file__), "loads")  # the scan sees the calls it looks for
    trees = {name: _tree(os.path.join(pkg, name)) for name in sorted(os.listdir(pkg))
             if name.endswith(".py") and name != "atomic.py"}
    assert "cli.py" in trees
    found = {name: _calls(tree, "loads") + _calls(tree, "load") for name, tree in trees.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_map_lanes_submits_to_the_pool():
    """kernels.map_lanes is the one lane runner: no other code in the
    package submits work to a thread pool."""
    pkg = os.path.dirname(atomic.__file__)
    runner, = [node for node in ast.walk(_tree(kernels.__file__))
               if isinstance(node, ast.FunctionDef) and node.name == "map_lanes"]
    assert _calls(runner, "submit")  # the scan sees the calls it looks for
    found = {name: _calls(_tree(os.path.join(pkg, name)), "submit")
             for name in sorted(os.listdir(pkg)) if name.endswith(".py")}
    assert {name: lines for name, lines in found.items() if lines} == {
        "kernels.py": _calls(runner, "submit")}


def _names(tree):
    """Every name a tree reads, and every module it imports."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
            | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)})


def test_only_open_sealed_makes_a_reader():
    """Both binary formats are one container: atomic.open_sealed is the one
    place a Reader is made, once magic, version and digest hold, and
    neither format module digests anything itself."""
    pkg = os.path.dirname(atomic.__file__)
    opener, = [node for node in ast.walk(_tree(atomic.__file__))
               if isinstance(node, ast.FunctionDef) and node.name == "open_sealed"]
    assert _calls(opener, "Reader")  # the scan sees the calls it looks for
    found = {name: _calls(_tree(os.path.join(pkg, name)), "Reader")
             for name in sorted(os.listdir(pkg)) if name.endswith(".py")}
    assert {name: lines for name, lines in found.items() if lines} == {
        "atomic.py": _calls(opener, "Reader")}
    assert "hashlib" in _names(_tree(atomic.__file__))
    for module in (encoder, prompt):
        assert "hashlib" not in _names(_tree(module.__file__)), module.__name__
