"""Read and edit the float columns of a stored ``trajectory.json``.

Each component's ``arc``, ``x``, ``y`` and ``z`` column is stored as a
base64 string of little-endian float64, 8 bytes per event.  The helpers
here read and write that layout with ``struct``, independently of
``serialization``, so a test that edits a stored value does it through one
decode/re-encode path.
"""

import base64
import struct


def decode_column(text: str) -> list[float]:
    raw = base64.b64decode(text, validate=True)
    return list(struct.unpack("<%dd" % (len(raw) // 8), raw))


def encode_column(values) -> str:
    return base64.b64encode(struct.pack("<%dd" % len(values), *values)).decode("ascii")


def edit_column(data: dict, column: str, change, component: int = 0) -> None:
    """Decode ``column`` of ``component`` in a loaded trajectory file, let
    ``change`` edit the list of floats in place, and store it re-encoded."""
    comp = data["components"][component]
    values = decode_column(comp[column])
    change(values)
    comp[column] = encode_column(values)
