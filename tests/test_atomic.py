import os
import stat

import pytest

from frameprompt import atomic
from frameprompt.atomic import Reader, write_atomic
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
