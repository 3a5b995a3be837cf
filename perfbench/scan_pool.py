"""List the draws of the `analyze` game pool that fail their checks.

    python3 perfbench/scan_pool.py

Run from the root of a source checkout.  Runs `symmeq analyze --json` on
every draw of `Analyze.pool()` and prints, as one JSON line, the draws
whose XE value falls below conv-Nash (the named game's fault; these make
up `Analyze.XE_FAULT_DRAWS`) and any that fail in another way.  Exits 1
if the printed XE-fault draws differ from `Analyze.XE_FAULT_DRAWS`.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import symmeq  # noqa: E402
import symmeq.cli  # noqa: E402

import exact as X  # noqa: E402
import workloads as W  # noqa: E402


def main():
    xe_fault, other = [], []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-scan-", dir=HERE / "out") as tmp:
        for i, A in enumerate(W.Analyze.pool()):
            path = W._write(f"{tmp}/g.json", {"m": 3, "A": W._fmt(A)})
            report, err = W._report(W.CliOp(symmeq, ["analyze", path, "--json"])(), 0)
            if err:
                other.append([i, err])
                continue
            reason, xe_low = W.check_analyze(X.mat(A), report, [])
            if xe_low:
                xe_fault.append(i)
            elif reason:
                other.append([i, reason])
    print(json.dumps({"xe_fault_draws": xe_fault, "other_failures": other}))
    return 0 if set(xe_fault) == W.Analyze.XE_FAULT_DRAWS else 1


if __name__ == "__main__":
    sys.exit(main())
