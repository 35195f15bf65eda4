#!/usr/bin/env python3
"""Bin pcprof samples by the executable's symbols.

    python3 bench/pcprof/report.py EXE OUT [TOP]

EXE is the executable the samples were taken in and OUT the file
pcprof.so wrote ($PCPROF_OUT): one hex offset into EXE a line. Each
sample is charged to the nearest preceding symbol of
`nm -n --defined-only EXE`; a sample past the last symbol, before the
first, or on a data symbol is charged to "(outside EXE text)". Prints
the TOP (default 30) symbols by samples, with their share of all
samples.
"""

import bisect
import collections
import subprocess
import sys

TEXT_TYPES = set("tTwW")


def symbols(exe):
    out = subprocess.run(["nm", "-n", "--defined-only", exe], check=True,
                         capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(None, 2)
        if len(parts) != 3:
            continue
        addr, kind, name = parts
        addrs.append(int(addr, 16))
        names.append(name if kind in TEXT_TYPES else None)
    return addrs, names


def main():
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__.strip().splitlines()[2].strip())
    exe, out = sys.argv[1], sys.argv[2]
    top = int(sys.argv[3]) if len(sys.argv) == 4 else 30
    addrs, names = symbols(exe)
    counts = collections.Counter()
    total = 0
    with open(out) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            total += 1
            i = bisect.bisect_right(addrs, int(line, 16)) - 1
            name = names[i] if 0 <= i < len(addrs) - 1 else None
            counts[name or "(outside EXE text)"] += 1
    if total == 0:
        sys.exit("pcprof: no samples in " + out)
    print(f"{total} samples")
    print(f"{'samples':>8} {'share':>7}  symbol")
    for name, n in counts.most_common(top):
        print(f"{n:8d} {100.0 * n / total:6.2f}%  {name}")


if __name__ == "__main__":
    main()
