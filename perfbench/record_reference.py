"""Record ``reference.json``: the expected per-loop report digests and the
windowed trace records of every command.

Run it only at a commit whose reports are known to be right, from the root
of a checkout::

    python3 perfbench/record_reference.py

It runs one traced pass of each workload, refuses to write when the
spilled report differs from the in-RAM one, and overwrites the file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import Runner  # noqa: E402
from workloads import SHARED_PROGRAM, WORKLOADS  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main() -> int:
    if os.path.exists(REFERENCE):
        os.remove(REFERENCE)
    passes = {}
    for name in WORKLOADS:
        runner = Runner(name, seed=0)
        try:
            result = runner.child(trace=1)
        finally:
            runner.close()
        if "error" in result:
            print(f"{name}: {result['error']}", file=sys.stderr)
            return 1
        passes[name] = result
    expected = {}
    for name, workload in WORKLOADS.items():
        if workload.reference != name:
            continue
        result = passes[name]
        expected[name] = {
            label: {"loops": loops,
                    "records": result["counts"][label]["trace.records"]}
            for label, loops in sorted(result["digests"].items())
        }
    shared = f"analyze:{SHARED_PROGRAM[0]}"
    spilled = passes["spilled"]
    if (spilled["digests"][shared] != expected["scaled"][shared]["loops"]
            or spilled["counts"][shared]["trace.records"]
            != expected["scaled"][shared]["records"]):
        print("the spilled report differs from the in-RAM one; not "
              "recording", file=sys.stderr)
        return 1
    with open(REFERENCE, "w") as fh:
        json.dump({"expected": expected}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
