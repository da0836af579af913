"""The package's one CSV writer.

write_csv formats a table column by column: a numpy array of floats, ints or
bools in one pass over its ``tolist()`` (floats as ``repr``, ints as ``str``,
bools as ``true``/``false``), anything else element by element under the same
rules, with strings written as they are. The bytes equal those of
``csv.writer`` with its defaults: ``,`` between fields and ``\\r\\n`` after
every row. A string that ``csv.writer`` would quote raises ValueError, so no
cell ever needs quoting.
"""

import numpy as np

_NEEDS_QUOTES = frozenset(',"\r\n')


def _format_cell(x) -> str:
    """One cell: str as is, bool as true/false, int as str, else the repr of
    its float value."""
    if isinstance(x, str):
        if _NEEDS_QUOTES.intersection(x):
            raise ValueError(f"CSV cell {x!r} would need quoting")
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _format_column(col) -> list:
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
        if kind == "f":
            return list(map(repr, col.tolist()))
        if kind in "iu":
            return list(map(str, col.tolist()))
        if kind == "b":
            return ["true" if b else "false" for b in col.tolist()]
    return [_format_cell(x) for x in col]


def write_csv(path, header, columns) -> None:
    """Write `header` and the rows formed by `columns`, all of one length."""
    cells = [_format_column(col) for col in columns]
    if len({len(c) for c in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    if len(cells) == 1 and "" in cells[0]:
        raise ValueError("an empty cell alone on its row would need quoting")
    lines = [",".join(_format_cell(h) for h in header)]
    lines.extend(map(",".join, zip(*cells)))
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
