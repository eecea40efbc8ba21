"""Ground-truth weight layouts the kernel bodies were written against.

The runtime interpreter ships next to the kernel sources, so it may read this
table directly. A generated program has no access to it: the code generator
must recover workable layouts by search, comparing candidate behavior
against the interpreter. Tests assert that nothing under codegen imports
this module.

Keys are (op id, dtype name); each value names one of the unit's layouts.
"""

from ..graphir import CONV_2D, FULLY_CONNECTED

_TRUE_LAYOUTS = {
    (CONV_2D, "F32"): "HWIO",
    (FULLY_CONNECTED, "F32"): "transposed",
}


def hidden_status_for(key):
    """The true weight layout for a unit key; None when the unit has none."""
    return _TRUE_LAYOUTS.get((key.op_id, key.dtype.name))
