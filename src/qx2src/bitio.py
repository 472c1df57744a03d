"""Bit-file ingestion and emission.

Raw files are packed little-endian: byte 0 bit 0 is coordinate 0.  Hex
files carry the same packed bytes as hexadecimal text (whitespace
ignored).
"""

from __future__ import annotations

import binascii
from pathlib import Path
from typing import Literal, get_args

from .errors import ParameterError
from .gf2 import BitVector

Format = Literal["raw", "hex"]
FORMATS = get_args(Format)


def read_bits(path, n: int, fmt: Format = "raw") -> BitVector:
    """First n bits of a file in the packed little-endian convention."""
    if fmt not in FORMATS:
        raise ParameterError(f"unknown format {fmt!r}")
    data = Path(path).read_bytes()
    if fmt == "hex":
        text = b"".join(data.split())
        try:
            data = binascii.unhexlify(text)
        except (binascii.Error, ValueError) as exc:
            raise ParameterError(f"invalid hex input in {path}: {exc}") from exc
    if 8 * len(data) < n:
        raise ParameterError(
            f"{path} holds {8 * len(data)} bits, need at least {n}")
    return BitVector.from_bytes(data, n)


def write_bits(path, bits: BitVector, fmt: Format = "raw") -> None:
    if fmt not in FORMATS:
        raise ParameterError(f"unknown format {fmt!r}")
    data = bits.to_bytes()
    if fmt == "hex":
        Path(path).write_text(data.hex() + "\n")
    else:
        Path(path).write_bytes(data)
