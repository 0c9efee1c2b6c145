"""The numeric CSV format of coefficient, sample and knot-table files.

Blank lines are skipped.  A line starting with ``#`` is a comment whose
``key=value`` tokens carry integer settings; a reader takes the keys it asks
for, matched case-insensitively.  One byte-order mark at the start of a file
is dropped.  The first other line is a header, and skipped, when its first
field is not a number.  Every later line is a row of integer fields, then
``floats`` float fields, parsed with ``int`` and ``float``, and all rows are
as wide as the first.  A reader that asks for ``d`` takes it as the
dimension: rows then hold ``lead`` integers and ``d`` coordinates before the
floats, and without a ``# d=`` setting the width of the first row decides
``d``.  Errors read ``<file>:<line>: <what>``.

The rows of a seekable handle are parsed in bulk by one ``np.loadtxt``
call.  When it refuses a row, or could read one differently from ``int`` and
``float`` (text outside ASCII, the separators ``\\x1c``-``\\x1f``), the line
reader reads the rows instead: it finds and words the errors, and it takes
comment lines among the rows and handles that cannot seek.
"""

from __future__ import annotations

import array
import functools
import itertools

import numpy as np

from .errors import DomainError

_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def source_name(fh):
    """The name errors give a handle: its file name, or ``<stream>``."""
    return str(getattr(fh, "name", "<stream>"))


def read_rows(fh, keys=(), lead=0, floats=1):
    """Read a numeric CSV from a text handle.

    The lines before the first row are read one at a time and the rows in
    bulk; where the bulk parse refuses the rows or could misread them, the
    line reader reads them, and finds and words every error.  Returns the
    settings found among ``keys`` and two read-only arrays: the rows'
    integer fields, (n, k) int64 with k = lead (+ d when asked for), and
    their float fields, (n, floats) float64.
    """
    name = source_name(fh)
    try:
        settings, first, lineno = _read_prefix(fh, keys, lead, floats, name)
        k = lead + settings.get("d", 0)
        if first is None:
            arrays = np.empty((0, k), np.int64), np.empty((0, floats))
        else:
            arrays = _read_bulk(fh, first, k, floats)
            if arrays is None:
                lines = itertools.chain([first], fh)
                arrays = _read_lines(lines, lineno, keys, settings, k, floats, name)
    except UnicodeDecodeError as exc:
        raise DomainError("%s: not UTF-8 text (%s)" % (name, exc.reason))
    for arr in arrays:
        arr.flags.writeable = False
    return (settings, *arrays)


def _read_prefix(fh, keys, lead, floats, name):
    """Read the lines up to the first row with ``readline``, which, unlike
    iterating, leaves ``tell`` working.  Returns the settings (with the
    row's ``d``), the first row, or None when there is none, and its line
    number."""
    settings, header = {}, False
    for lineno in itertools.count(1):
        line = fh.readline()
        if not line:
            return settings, None, lineno
        if lineno == 1:
            line = line.removeprefix("\ufeff")
        line = line.strip()
        if not line or line[0] == "#":
            if line:
                _read_settings(line, keys, settings, None, "%s:%d: " % (name, lineno))
            continue
        parts = line.split(",")
        if not header:
            header = True
            try:
                float(parts[0])
            except ValueError:
                continue
        if "d" in keys:
            dim = settings.setdefault("d", len(parts) - lead - floats)
            if dim < 1:
                raise DomainError("%s:%d: too few fields" % (name, lineno))
        return settings, line, lineno


def _read_bulk(fh, first, k, floats):
    """The rows, from ``first`` on, parsed by one ``np.loadtxt`` call, as
    views of its record array; or None, with the handle back after
    ``first``, when the handle cannot seek or a row is refused."""
    if not fh.seekable():
        return None
    start = fh.tell()
    try:
        # loadtxt strips \x1c-\x1f from fields as whitespace, which int and
        # float refuse, and reads some characters outside ASCII as digits of
        # integer fields; rows holding any of these go to the line reader
        blocks = itertools.chain([first], iter(functools.partial(fh.read, 1 << 16), ""))
        if all(block.isascii() and not any(c in block for c in _SEPARATORS) for block in blocks):
            fh.seek(start)
            rows = np.loadtxt(
                itertools.chain([first], fh), delimiter=",", comments=None, ndmin=1,
                dtype=[("i", np.int64, (k,)), ("v", np.float64, (floats,))],
            )
            return rows["i"], rows["v"]
    except ValueError:
        pass
    fh.seek(start)
    return None


def _read_lines(lines, lineno, keys, settings, k, floats, name):
    """The rows parsed line by line, numbered from ``lineno``; every error
    names its line."""
    width, dim = k + floats, settings.get("d")
    ints, values = array.array("q"), array.array("d")
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line or line[0] == "#":
            if line:
                _read_settings(line, keys, settings, dim, "%s:%d: " % (name, lineno))
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DomainError(
                "%s:%d: expected %d fields, got %d" % (name, lineno, width, len(parts))
            )
        try:
            ints.extend(map(int, parts[:k]))
            values.extend(map(float, parts[k:]))
        except ValueError:
            raise DomainError("%s:%d: malformed row %r" % (name, lineno, line))
        except OverflowError:
            raise DomainError("%s:%d: an integer field is too large" % (name, lineno))
    n = len(values) // floats
    return np.frombuffer(ints, np.int64).reshape(n, k), np.frombuffer(values).reshape(n, floats)


def _read_settings(line, keys, settings, dim, where):
    for token in line[1:].split():
        key, sep, value = token.partition("=")
        key = key.lower()
        if not sep or key not in keys:
            continue
        try:
            settings[key] = value = int(value)
        except ValueError:
            raise DomainError("%s%r is not an integer setting" % (where, token))
        if key == "d" and (value < 1 or dim not in (None, value)):
            raise DomainError("%s%r: d must be positive and match the rows" % (where, token))


def write_header(fh, comments, columns):
    """Write each comment as a ``#`` line, then the row of column names."""
    fh.write("".join("# %s\n" % line for line in comments) + ",".join(columns) + "\n")


def write_rows(fh, ints, values, prefix=""):
    """Write one line per row: ``prefix``, the row of the (n, k) integer
    array ``ints`` and the matching entry of ``values`` as repr, separated
    by commas."""
    line = prefix.replace("%", "%%") + "%d," * ints.shape[1] + "%r\n"
    fh.writelines(line % row for row in zip(*ints.T.tolist(), values.tolist()))
