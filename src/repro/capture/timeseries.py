"""Throughput time series from packet captures.

The figures in Secs. 4-6 and 8 plot instantaneous throughput binned over
time (Kbps or Mbps). These helpers bin :class:`PacketRecord` streams the
same way.
"""

from __future__ import annotations

import typing

import numpy as np

from .sniffer import PacketRecord


class ThroughputSeries:
    """A binned throughput series with convenient unit accessors."""

    def __init__(self, times_s: np.ndarray, bits_per_bin: np.ndarray, bin_s: float) -> None:
        self.times_s = times_s
        self.bits_per_bin = bits_per_bin
        self.bin_s = bin_s

    @property
    def bps(self) -> np.ndarray:
        return self.bits_per_bin / self.bin_s

    @property
    def kbps(self) -> np.ndarray:
        return self.bps / 1e3

    @property
    def mbps(self) -> np.ndarray:
        return self.bps / 1e6

    def mean_kbps(self, start: typing.Optional[float] = None, end: typing.Optional[float] = None) -> float:
        """Average throughput (Kbps) over [start, end)."""
        mask = np.ones_like(self.times_s, dtype=bool)
        if start is not None:
            mask &= self.times_s >= start
        if end is not None:
            mask &= self.times_s < end
        if not mask.any():
            return 0.0
        return float(self.kbps[mask].mean())

    def max_kbps(self) -> float:
        return float(self.kbps.max()) if len(self.kbps) else 0.0

    def __len__(self) -> int:
        return len(self.times_s)


def throughput_series(
    records: typing.Sequence[PacketRecord],
    start: float,
    end: float,
    bin_s: float = 1.0,
) -> ThroughputSeries:
    """Bin ``records`` into a throughput series over [start, end)."""
    accumulator = BinAccumulator(start, end, bin_s)
    add = accumulator.add
    for record in records:
        add(record.time, record.size)
    return accumulator.series()


class BinAccumulator:
    """Throughput bins over [start, end), fed one packet at a time.

    This is the one binning rule: :func:`throughput_series` feeds it a
    retained record list, and :meth:`Sniffer.stream_bins
    <repro.capture.sniffer.Sniffer.stream_bins>` feeds it live from a
    tap, so a long capture needs O(bins) memory instead of O(packets).
    Per-bin sums are exact integer bit counts, so both feeds give the
    same :class:`ThroughputSeries` bit for bit.
    """

    __slots__ = ("start", "end", "bin_s", "n_bins", "_bits")

    def __init__(self, start: float, end: float, bin_s: float = 1.0) -> None:
        if end <= start:
            raise ValueError(f"end ({end}) must exceed start ({start})")
        self.start = start
        self.end = end
        self.bin_s = bin_s
        self.n_bins = int(np.ceil((end - start) / bin_s))
        self._bits = [0] * self.n_bins

    def add(self, time: float, size: int) -> None:
        """Account one packet of ``size`` bytes captured at ``time``."""
        if self.start <= time < self.end:
            index = int((time - self.start) / self.bin_s)
            if index >= self.n_bins:
                index = self.n_bins - 1
            self._bits[index] += size * 8

    @property
    def total_bits(self) -> int:
        return sum(self._bits)

    def average_kbps(self) -> float:
        """Average throughput over the accumulator's full window."""
        return self.total_bits / (self.end - self.start) / 1e3

    def series(self) -> ThroughputSeries:
        """The accumulated bins as a :class:`ThroughputSeries`."""
        times = self.start + (np.arange(self.n_bins) + 0.5) * self.bin_s
        return ThroughputSeries(times, np.asarray(self._bits, dtype=float), self.bin_s)


def average_kbps(
    records: typing.Sequence[PacketRecord], start: float, end: float
) -> float:
    """Average throughput in Kbps over [start, end)."""
    if end <= start:
        raise ValueError(f"end ({end}) must exceed start ({start})")
    total_bits = sum(r.size * 8 for r in records if start <= r.time < end)
    return total_bits / (end - start) / 1e3


def correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation between two equal-length series.

    Used for the Fig. 3 analysis: U1's uplink closely matches U2's
    downlink when servers simply forward avatar data.
    """
    if len(a) != len(b):
        raise ValueError(f"series length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        return 0.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])
