"""The line-log and atomic-write primitives (``repro.durable``)."""

import os

from repro.durable import LineLog, atomic_write, read_lines


def test_read_lines_splits_off_the_unterminated_tail(tmp_path):
    path = tmp_path / "log"
    path.write_bytes(b'{"a": 1}\n\n\xff\n{"b"')
    assert read_lines(path) == ([b'{"a": 1}', b"", b"\xff"], b'{"b"')
    path.write_bytes(b"x\n")
    assert read_lines(path) == ([b"x"], b"")


def test_first_append_truncates_a_torn_tail(tmp_path):
    path = tmp_path / "log"
    # A tail longer than one read chunk, and a file with no newline.
    for torn, kept in ((b"old\n" + b"t" * 10000, b"old\n"),
                       (b"t" * 10, b"")):
        path.write_bytes(torn)
        with LineLog(path, fsync=False) as log:
            log.append("new\n")
            log.append("more\n")
        assert path.read_bytes() == kept + b"new\nmore\n"


def test_append_reopens_after_close_and_keeps_whole_lines(tmp_path):
    path = tmp_path / "sub" / "log"
    path.parent.mkdir()
    log = LineLog(path, fsync=True)
    log.append("a\nb\n")
    log.close()
    log.append("c\n")
    log.close()
    assert read_lines(path) == ([b"a", b"b", b"c"], b"")


def test_atomic_write_replaces_whole_and_leaves_no_temp(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old contents")
    atomic_write(str(path), '{"new": true}\n')
    assert path.read_text() == '{"new": true}\n'
    assert os.listdir(tmp_path) == ["doc.json"]
