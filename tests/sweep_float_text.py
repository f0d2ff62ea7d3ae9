"""Check the CSV float text against repr on seeded random bit patterns.

tier-1 sweeps 10**6 patterns; this script sweeps 10**7 by default, a block
of 10**6 at a time, and is not collected by pytest.  Run it from the
repository root:

    PYTHONPATH=src python tests/sweep_float_text.py [--count N] [--seed S]

Every 64-bit pattern is drawn uniformly, so nan and inf payloads,
subnormals and both zeros occur as often as their share of the patterns.
Exits 1 naming the first value whose text is not repr's.
"""

import argparse
import sys
import time

import numpy as np

from regwave import formats

BLOCK = 10**6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    kernel_s = repr_s = 0.0
    for lo in range(0, args.count, BLOCK):
        size = min(BLOCK, args.count - lo)
        values = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
        t0 = time.perf_counter()
        text = formats._float_text(values)
        got = formats._text(formats._columns(text, formats._NL)).decode().split("\n")
        t1 = time.perf_counter()
        want = list(map(repr, values.tolist()))
        t2 = time.perf_counter()
        kernel_s += t1 - t0
        repr_s += t2 - t1
        if got[:-1] != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            bits = int(values.view(np.uint64)[i])
            print(f"pattern {lo + i} ({bits:#018x}): {got[i]!r} is not repr's {want[i]!r}")
            return 1
    print(f"{args.count} bit patterns from seed {args.seed}: every text is repr's "
          f"(float text {kernel_s:.1f} s with the row layout, repr {repr_s:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
