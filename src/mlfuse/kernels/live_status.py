"""Ground-truth configuration settings the kernel bodies were written against.

The runtime interpreter ships next to the kernel sources, so it may read this
table directly. A generated program has no access to it: the code generator
must recover workable settings by search, comparing candidate behavior
against the interpreter. Tests assert that nothing under codegen imports
this module.

Keys are (op id, dtype name, variant). Fields marked value-changing in the
unit schemas alter results when mis-set; the rest only shape performance.
"""

from ..graphir import CONV_2D, FULLY_CONNECTED

_TRUE_STATUS = {
    (CONV_2D, "F32", "reference"): {"weights_layout": "HWIO"},
    (FULLY_CONNECTED, "F32", "reference"): {"weights_layout": "transposed"},
}


def hidden_status_for(key) -> dict:
    """True status values for a unit key; empty when the unit has no unknowns."""
    return dict(_TRUE_STATUS.get((key.op_id, key.dtype.name, key.variant), {}))
