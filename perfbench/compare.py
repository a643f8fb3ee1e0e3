"""Check that two result files of one workload report identical counts.

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Compares the per-instance Newton steps, outer iterations and ``h_ub = inf``
steps, every metric the run marks as exact, and (for traced runs) the
per-pass call counts.  Exits 0 when they all agree, 1 otherwise.
"""

from __future__ import annotations

import json
import sys


def exact_counts(doc: dict) -> dict:
    out = {f"counts.{k}": v for k, v in doc["counts"].items()}
    for name in doc["exact"]:
        out[name] = doc["metrics"][name]["value"]
    if "pass_counts" in doc:
        out["pass_counts"] = doc["pass_counts"][0]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    if docs[0]["header"]["workload"] != docs[1]["header"]["workload"]:
        print("the files hold different workloads", file=sys.stderr)
        return 2
    a, b = (exact_counts(d) for d in docs)
    differ = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    for k in differ:
        print(f"{k}: {a.get(k)} != {b.get(k)}")
    if not differ:
        print(f"identical counts ({len(a)} fields)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
