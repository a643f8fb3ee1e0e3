"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the root of a source checkout.

Prints the run header, every metric with its unit, and as the last line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (per-instance counts, input fingerprints, failures) goes to
``.perfbench_out/<workload>-seed<N>-trace<0|1>.json``.  Exits non-zero,
printing no result, when the checkout holds no ``src/geoipm``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sdp_short", "sdp_cold", "mixed_op")


def bootstrap() -> None:
    """Make ``src/geoipm`` of this checkout and the benchmark modules importable."""
    if not (ROOT / "src" / "geoipm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/geoipm under {ROOT}; run from a source checkout")
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import geoipm

    if Path(geoipm.__file__).resolve().parent != (ROOT / "src" / "geoipm").resolve():
        raise SystemExit(f"perfbench: imported geoipm from {geoipm.__file__}, not this checkout")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed solve time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds >= 0.0:
        parser.error("--seconds must be non-negative")
    return args


def main(argv=None, **run_kwargs) -> int:
    """Run the benchmark; ``run_kwargs`` (``count``, ``outdir``) go to ``bench.run``."""
    args = parse_args(argv)
    bootstrap()
    import bench

    doc = bench.run(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                    **run_kwargs)
    print("# header " + json.dumps(doc["header"]))
    for name, m in doc["metrics"].items():
        print(f"{name:36s} {m['value']!r:>24} {m['unit']}")
    print(f"{'failed_frac':36s} {doc['failed_frac']!r:>24} ratio")
    if "raw_wall" in doc:
        raw = ", ".join(f"{k} {v!r}" for k, v in doc["raw_wall"].items())
        print(f"# unscaled wall times: {raw}")
    if "tail" in doc:
        t = doc["tail"]
        print(f"# solve_s_tail is p{t['percentile']:g} of {t['samples']} solves, "
              f"{t['samples_beyond']} beyond it")
    print(f"# passes {doc['passes']}, timed {doc['timed_s']} s, "
          f"steps per instance {doc['counts']['steps']}")
    for line in doc["failures"]:
        print(f"# FAILED {line}")
    result = {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
