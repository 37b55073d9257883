"""Physical-address to DRAM-coordinate mapping.

The memory controller decomposes a physical byte address into
(channel, rank, bank, row, column) coordinates.  Two schemes are
provided:

* ``row-interleaved`` (``RoBaCo``): consecutive addresses fill a row,
  then move to the next bank — maximizes row-buffer locality.
* ``bank-interleaved`` (``RoCoBa``): consecutive cache lines rotate
  across banks — maximizes bank-level parallelism.

The mapping is what translates a *software* page into *device* rows:
the RowHammer security argument rests on different OS pages landing in
physically adjacent device rows, which this module makes explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import DramGeometry


@dataclass(frozen=True)
class DramCoordinate:
    """A fully decoded DRAM location."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMapping:
    """Bijective physical-address <-> DRAM-coordinate mapping.

    Args:
        geometry: module organization.
        scheme: ``"row-interleaved"`` or ``"bank-interleaved"``.
    """

    SCHEMES = ("row-interleaved", "bank-interleaved")

    def __init__(self, geometry: DramGeometry, scheme: str = "row-interleaved") -> None:
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; expected one of {self.SCHEMES}")
        self.geometry = geometry
        self.scheme = scheme

    @property
    def capacity_bytes(self) -> int:
        """Addressable bytes."""
        return self.geometry.capacity_bytes

    def decode(self, address: int) -> DramCoordinate:
        """Decode a physical byte address into DRAM coordinates."""
        geo = self.geometry
        if not 0 <= address < self.capacity_bytes:
            raise IndexError(f"address {address:#x} out of range")
        column = address % geo.row_bytes
        upper = address // geo.row_bytes
        if self.scheme == "row-interleaved":
            bank = upper % geo.banks
            upper //= geo.banks
            row = upper % geo.rows
            upper //= geo.rows
        else:  # bank-interleaved: bank bits above column bits rotate fastest
            row = upper % geo.rows
            upper //= geo.rows
            bank = upper % geo.banks
            upper //= geo.banks
        rank = upper % geo.ranks
        upper //= geo.ranks
        channel = upper
        return DramCoordinate(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def encode(self, coord: DramCoordinate) -> int:
        """Encode DRAM coordinates back into a physical byte address."""
        geo = self.geometry
        geo.check_bank(coord.bank)
        geo.check_row(coord.row)
        if not 0 <= coord.column < geo.row_bytes:
            raise IndexError(f"column {coord.column} out of range")
        if not 0 <= coord.rank < geo.ranks:
            raise IndexError(f"rank {coord.rank} out of range")
        if not 0 <= coord.channel < geo.channels:
            raise IndexError(f"channel {coord.channel} out of range")
        if self.scheme == "row-interleaved":
            upper = ((coord.channel * geo.ranks + coord.rank) * geo.rows + coord.row) * geo.banks + coord.bank
        else:
            upper = ((coord.channel * geo.ranks + coord.rank) * geo.banks + coord.bank) * geo.rows + coord.row
        return upper * geo.row_bytes + coord.column

    def row_address(self, bank: int, row: int, channel: int = 0, rank: int = 0) -> int:
        """Physical address of the first byte of ``(bank, row)``."""
        return self.encode(DramCoordinate(channel=channel, rank=rank, bank=bank, row=row, column=0))

