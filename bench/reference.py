"""Reference figures, measured once and not gated.

    python3 bench/reference.py

Prints the CPU time of nef_walls on U + A1^k (ample (4, 3, 1, ..., 1)) for
k = 1..6, and on diag(2, -4, -6) with ample (3, 1, 1) at doubling
ceilings 2 and 4, with wall counts.  k = 6 takes minutes.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from k3cone import Lattice, nef_walls  # noqa: E402

from workloads import diag, ua  # noqa: E402


def timed(lat, ample, ceiling=None):
    start = time.process_time()
    nef = nef_walls(lat, ample, ceiling)
    return time.process_time() - start, nef


def main():
    for k in range(1, 7):
        ample = (4, 3) + (1,) * k
        seconds, nef = timed(Lattice(ua(k)), ample)
        print(f"nef_walls U+A1^{k} {ample}: {seconds:.2f} s, {len(nef.walls)} walls, "
              f"complete={nef.complete}", flush=True)
    for ceiling in (2, 4):
        seconds, nef = timed(Lattice(diag(2, -4, -6)), (3, 1, 1), ceiling)
        print(f"nef_walls diag(2,-4,-6) (3,1,1) ceiling {ceiling}: {seconds:.2f} s, "
              f"{len(nef.walls)} walls, complete={nef.complete}", flush=True)


if __name__ == "__main__":
    main()
