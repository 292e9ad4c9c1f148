import ast
import hashlib
import os
import stat

import pytest

from frameprompt import atomic, kernels
from frameprompt.atomic import Reader, write_atomic, write_json
from frameprompt.errors import FormatError, TruncatedFileError


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
    path.write_bytes(b"MAGC" + (7).to_bytes(4, "little") + b"\x01\x02" + b"xy")
    r = Reader(str(path))
    assert r.take(4) == b"MAGC"
    assert r.unpack("IBB") == (7, 1, 2)
    with pytest.raises(FormatError, match="2 trailing bytes"):
        r.end()
    with pytest.raises(TruncatedFileError):
        r.take(3)
    assert r.take(2) == b"xy"
    r.end()


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
        Reader(src)
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
