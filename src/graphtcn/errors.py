"""Exception types shared across the package, and the one text reader of
scene, config and dump files: ``read_utf8``, then ``content_lines``."""

import codecs
import io
from pathlib import Path


def read_utf8(path, error: type) -> str:
    """``path``'s text without one leading byte-order mark; bytes that are
    not UTF-8 raise ``error``, naming the file and the byte offset."""
    raw = Path(path).read_bytes()
    skip = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    try:
        return raw[skip:].decode("utf-8")
    except UnicodeDecodeError as e:
        raise error(f"{path}: invalid UTF-8 at byte offset {skip + e.start}") from None


def content_lines(text: str):
    """Yield ``(line_no, line)``, counted from 1, for each stripped line of
    ``text`` that is not blank or ``#``; only ``\\n``, ``\\r\\n`` and ``\\r`` end a line."""
    for line_no, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


class GraphTCNError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GraphTCNError, ValueError):
    """Operands have incompatible shapes or extents."""


class DomainError(GraphTCNError, ValueError):
    """An input value lies outside the operation's domain."""


class ContractError(GraphTCNError, ValueError):
    """A caller violated an operation's precondition."""


class NeighborhoodError(GraphTCNError, ValueError):
    """An attention row has no unmasked neighbor."""


class ParseError(GraphTCNError, ValueError):
    """A trajectory file line could not be parsed."""


class DuplicateRecordError(GraphTCNError, ValueError):
    """The same (frame, pedestrian) pair appears twice in one file."""


class ConfigError(GraphTCNError, ValueError):
    """A configuration value or combination is invalid."""


class DataError(GraphTCNError, ValueError):
    """Requested scene or window data is missing."""


class CheckpointFormatError(GraphTCNError, ValueError):
    """A checkpoint file has the wrong magic or version."""


class CheckpointCorruptError(GraphTCNError, ValueError):
    """A checkpoint file is truncated or inconsistent."""


class TrainingDivergedError(GraphTCNError, RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, window_id, value):
        self.epoch = epoch
        self.window_id = window_id
        self.value = value
        super().__init__(
            f"non-finite loss {value!r} at epoch {epoch}, window {window_id}"
        )
