"""The numeric CSV format of coefficient, sample and knot-table files.

Blank lines are skipped.  A line starting with ``#`` is a comment whose
``key=value`` tokens carry integer settings; a reader takes the keys it asks
for, matched case-insensitively.  The first other line is a header, and
skipped, when its first field is not a number.  Every later line is a row of
integer fields, then ``floats`` float fields, parsed with ``int`` and
``float``, and all rows are as wide as the first.  A reader that asks for
``d`` takes it as the dimension: rows then hold ``lead`` integers and ``d``
coordinates before the floats, and without a ``# d=`` setting the width of
the first row decides ``d``.  Errors read ``<file>:<line>: <what>``.
"""

from __future__ import annotations

import array

import numpy as np

from .errors import DomainError


def source_name(fh):
    """The name errors give a handle: its file name, or ``<stream>``."""
    return str(getattr(fh, "name", "<stream>"))


def read_rows(fh, keys=(), lead=0, floats=1):
    """Read a numeric CSV from a text handle in one pass.

    Returns the settings found among ``keys`` and two read-only arrays: the
    rows' integer fields, (n, k) int64 with k = lead (+ d when asked for),
    and their float fields, (n, floats) float64.
    """
    name = source_name(fh)
    settings, ints, values = {}, array.array("q"), array.array("d")
    width = dim = header = None
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line[0] == "#":
                if line:
                    _read_settings(line, keys, settings, dim, "%s:%d: " % (name, lineno))
                continue
            parts = line.split(",")
            if width is None:
                if header is None:
                    header = lineno
                    try:
                        float(parts[0])
                    except ValueError:
                        continue
                if "d" in keys:
                    dim = settings.setdefault("d", len(parts) - lead - floats)
                    if dim < 1:
                        raise DomainError("%s:%d: too few fields" % (name, lineno))
                k = lead + (dim or 0)
                width = k + floats
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
    except UnicodeDecodeError as exc:
        raise DomainError("%s: not UTF-8 text (%s)" % (name, exc.reason))
    n = len(values) // floats
    ints = np.frombuffer(ints, np.int64).reshape(n, lead + settings.get("d", 0))
    return settings, ints, np.frombuffer(values).reshape(n, floats)


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
