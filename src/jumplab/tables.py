"""The one CSV writer: a string cell as it is, an integer as ``str(int(v))``,
any other cell as ``repr(float(v))``, whatever numpy scalar type carries it.
A leaf module, so that ``mc`` and ``fdm`` import it without a cycle."""
import numpy as np


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows):
    """Write the header line, then one comma-separated line per row of cells."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")
