#!/usr/bin/env python3
"""Print one SHA-256 over the labels of every benchmark call, to compare checkouts.

    python3 scripts/label_digest.py [CHECKOUT ...]

For each checkout (default: this repository) one pass of every workload in
its mcbench/workloads.py is made for seeds 1, 2 and 3, with microclust
imported from that checkout's src/: 108 clustering calls.  Each call's key,
point labels and micro-labels go into the digest in order, a failed call as
its key alone.  Equal digests mean every call gave the same labels.  One
line per checkout: digest, number of calls, checkout.  With two or more
checkouts each runs in its own process, and the exit status is 1 when the
digests differ.

Nothing is written: bytecode caching is off and no workload writes files.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2, 3)


def digest(checkout: Path) -> tuple[str, int]:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "mcbench")]
    import numpy as np
    from workloads import WORKLOADS

    h = hashlib.sha256()
    calls = 0
    for seed in SEEDS:
        for name in sorted(WORKLOADS):
            outcomes, _ = WORKLOADS[name](seed).run_pass()
            for o in outcomes:
                calls += 1
                h.update(repr((seed, name, o.key)).encode())
                for labels in (o.labels, o.micro_labels):
                    if labels is not None:
                        h.update(np.ascontiguousarray(labels, dtype=np.int64).tobytes())
    return h.hexdigest(), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1]])
    args = parser.parse_args(argv)
    if len(args.checkouts) == 1:
        checkout = args.checkouts[0].resolve()
        value, calls = digest(checkout)
        print(f"{value}  {calls} calls  {checkout}")
        return 0
    lines = []
    for checkout in args.checkouts:
        proc = subprocess.run([sys.executable, __file__, str(checkout)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines.append(proc.stdout.strip())
        print(lines[-1])
    return 0 if len({line.split()[0] for line in lines}) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
