"""The on-disk text conventions of every file the toolkit writes.

Doubles are written as ``%.17g``, which parses back bit-identically.  CSV is
``,``-separated and ``\\n``-terminated, with an optional header line and no
quoting; read_csv is the one CSV reader.  JSON has indent 1, sorted keys and a
trailing newline.  Files are written atomically: the text goes to a sibling
``.tmp`` that then replaces the target, and a failed write leaves no ``.tmp``.
"""

import json
import os
import warnings
from contextlib import contextmanager, suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError

FLOAT = "%.17g"
_BLOCK_ROWS = 256  # rows per % operation: bounds the text held in memory


def write_text(path, text) -> None:
    """Write a str, or an iterable of str pieces, to path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.errno is not None:  # name the target, not tmp
            raise OSError(exc.errno, exc.strerror, str(path)) from exc  # same subclass
        raise


def csv_lines(rows, header=None):
    """Yield the CSV text of a 2-D array or a list of equal-length rows.

    Each block of rows is formatted in one ``%`` operation.  Float cells
    (numpy floats included) are written as FLOAT and all others with str();
    the first row of a block sets the kind of each column.
    """
    if header is not None:
        yield ",".join(header) + "\n"
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        block = block.tolist() if isinstance(block, np.ndarray) else block
        line = ",".join(FLOAT if isinstance(v, float) else "%s" for v in block[0]) + "\n"
        yield (line * len(block)) % tuple(chain.from_iterable(block))


def write_csv(path, rows, header=None) -> None:
    write_text(path, csv_lines(rows, header))


def read_csv(path):
    """Return the header cells and the rows below them as a (rows, width) float array.

    LF or CRLF line ends, blank lines, and spaces or ``"`` quotes around cells
    are accepted.  A ragged row or a cell that is not a number raises ConfigError.
    """
    try:
        with open(path) as fh:
            line = next((ln for ln in fh if not ln.isspace()), "")
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError as exc:  # also UnicodeDecodeError
        raise ConfigError(f"{path}: {exc}") from None
    header = [cell.strip().strip('"') for cell in line.split(",")]
    return header, data if len(data) else np.empty((0, len(header)))


def write_json(path, doc) -> None:
    write_text(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")


@contextmanager
def read_json(path):
    """Yield the JSON object at path to a block that builds from it.

    A file that does not decode to an object, and a KeyError, IndexError,
    TypeError or ValueError raised in the block, raise ConfigError("<path>: ...").
    A ConfigError raised in the block is raised again as ConfigError("<path>: <message>").
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    try:
        yield doc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad document ({type(exc).__name__}: {exc})") from exc
