"""Sustainable copy bandwidth of this machine, for the README's reference
figures.  Not part of a benchmark run.

Usage: python3 perfbench/bandwidth.py [MiB]

Copies one float64 array into another, both of the given size (default
1200 MiB, four times a 300 MiB last-level cache, so the copy streams from
memory), and prints the best of five as bytes read plus bytes written per
second.  numpy copies with one thread.
"""

import sys
import time

import numpy as np


def main():
    mib = int(sys.argv[1]) if len(sys.argv) > 1 else 1200
    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - start)
    moved = 2 * src.nbytes
    print(f"array {mib} MiB, copy {best * 1e3:.1f} ms, {moved / best / 1e9:.2f} GB/s (read + write)")


if __name__ == "__main__":
    main()
