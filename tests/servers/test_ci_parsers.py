"""Unit tests for the command interpreter's parsers."""

from repro.kernel.ids import ProcessId, parse_pid
from repro.servers.command_interpreter import _parse_value


class TestParsePid:
    def test_valid(self):
        assert parse_pid("2.5") == ProcessId(2, 5)
        assert parse_pid("0.1") == ProcessId(0, 1)
        # the pid as `run` and `ps` print it
        assert parse_pid("p0.6") == ProcessId(0, 6)
        assert parse_pid(str(ProcessId(12, 34))) == ProcessId(12, 34)

    def test_invalid_shapes(self):
        assert parse_pid("banana") is None
        assert parse_pid("1") is None
        assert parse_pid("1.2.3") is None
        assert parse_pid("a.b") is None
        assert parse_pid("") is None
        assert parse_pid("kernel[2]") is None
        assert parse_pid("px.y") is None
        assert parse_pid("p-1.2") is None


class TestParseValue:
    def test_int(self):
        assert _parse_value("42") == 42
        assert _parse_value("-7") == -7

    def test_bool(self):
        assert _parse_value("true") is True
        assert _parse_value("False") is False

    def test_string_fallback(self):
        assert _parse_value("hello") == "hello"
        assert _parse_value("3.14") == "3.14"  # no float params in programs
