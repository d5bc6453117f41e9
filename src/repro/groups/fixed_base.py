"""Fixed-base exponentiation with precomputed tables.

Most exponentiations in the framework share one base: ``g^r`` during
encryption, keying and proofs, and ``y^r`` for a fixed public key.  A
one-time table of ``base^(2^(w·i))`` powers turns each subsequent
exponentiation into table lookups and multiplications only — the classic
fixed-base windowing trade (≈ ``λ/w`` multiplications instead of
≈ ``1.5·λ``; window ``w = 4`` gives ~6× fewer group operations).

Two users, one window layout:

* below the meter — :class:`repro.groups.dl.DLGroup` keeps tables for
  the generator and for public keys an ElGamal scheme reuses
  (:meth:`repro.groups.base.Group.exp_fixed`) and walks them with raw
  ``backend.mulmod`` inside its metered ``exp``, so the default path
  gets the speed while every operation count stays that of one
  exponentiation;
* above it — the offline randomness pool (:mod:`repro.crypto.precompute`)
  and :func:`repro.math.multiexp.exp_many` build and walk tables with
  ``group.mul``, so each step is metered as a multiplication.

The ABL-fixedbase bench quantifies the win on real groups.

Table build and evaluation go through the given ``mul`` only, so they
inherit the active arithmetic backend (:mod:`repro.math.backend`) and
its native ``mulmod`` for free; table entries are plain ``int``
elements on every backend, so a table built under one backend is valid
under any other.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.groups.base import Element, Group


class PrecomputedBase:
    """Windowed fixed-base exponentiation for one ``(group, base)`` pair.

    Precomputes ``base^(j · 2^(w·i))`` for every window position ``i``
    and window value ``j ∈ [1, 2^w)``; an exponentiation then multiplies
    one table entry per non-zero window.
    """

    def __init__(
        self,
        group: Group,
        base: Element,
        window_bits: int = 4,
        mul: Optional[Callable[[Element, Element], Element]] = None,
    ):
        if not 1 <= window_bits <= 8:
            raise ValueError("window must be between 1 and 8 bits")
        self.group = group
        self.base = base
        self.window_bits = window_bits
        # The multiplication the table is built and walked with; None is
        # the metered ``group.mul``, looked up at call time.
        self._mul = mul
        self._windows = (group.order.bit_length() + window_bits - 1) // window_bits
        self._table: List[List[Element]] = []
        self._build_table()

    def _build_table(self) -> None:
        group = self.group
        mul = self._mul or group.mul
        window_size = 1 << self.window_bits
        current = self.base
        for _ in range(self._windows):
            row = [group.identity()]
            accumulator = group.identity()
            for _ in range(1, window_size):
                accumulator = mul(accumulator, current)
                row.append(accumulator)
            self._table.append(row)
            # Advance the base by 2^window_bits: square window_bits times.
            for _ in range(self.window_bits):
                current = mul(current, current)

    @property
    def table_entries(self) -> int:
        return self._windows * ((1 << self.window_bits) - 1)

    def exp(self, exponent: int) -> Element:
        """``base^exponent`` via table lookups (multiplications only)."""
        group = self.group
        mul = self._mul or group.mul
        exponent %= group.order
        result = group.identity()
        window_bits = self.window_bits
        mask = (1 << window_bits) - 1
        for row in self._table:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                result = mul(result, row[digit])
            exponent >>= window_bits
        return result

    def multiplications_per_exp(self) -> float:
        """Expected group multiplications per exponentiation.

        On average a fraction ``(2^w − 1)/2^w`` of the ``λ/w`` windows
        are non-zero, each costing one multiplication.
        """
        window_size = 1 << self.window_bits
        return self._windows * (window_size - 1) / window_size
