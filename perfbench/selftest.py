"""Self-test: the benchmark's checks catch injected faults.

Run from the repository root:

    python3 perfbench/selftest.py

Each case runs ``run.py`` for two seconds with a fault injected into the
program in the workload process:

* ``nudge``: one weight of the loaded model (``embed.W[0, 0]``) is moved by
  1e-6, so predictions drift from the oracle by about 1e-7 m;
* ``drop-grad``: ``backward`` skips the first op on the tape, so the input
  embedding gets no gradient.

Without a fault nothing may fail; with one, the failed share
(failed / attempted) must be above zero. Exits 0 when every case holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = (
    ("infer_small", "none", False),
    ("infer_small", "nudge", True),
    ("train_mixed", "none", False),
    ("train_mixed", "drop-grad", True),
)


def main() -> int:
    ok = True
    for workload, fault, should_fail in CASES:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
             "--seconds", "2", "--trace", "0", "--fault", fault],
            capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"{workload} fault={fault}: run.py exited {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        fail_frac = res["failed"] / res["attempted"]
        held = (fail_frac > 0) == should_fail and res["correct"] == (not should_fail)
        ok &= held
        print(f"{'ok  ' if held else 'BAD '} {workload:12s} fault={fault:9s} "
              f"failed {res['failed']} of {res['attempted']} (fail_frac {fail_frac:.3g})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
