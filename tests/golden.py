"""Golden check of the benchmark instances: one command that tells a
refactor whether it kept every benchmark trace.

It solves the 48 instances of ``perfbench`` (the three workloads, seeds 0
and 7919, eight instances each) as ``perfbench/run.py`` does: the
workload's set-up in a temporary directory, then its ``solve`` and
``check``.  ``perfbench/workloads.py`` is imported as it stands; nothing
under ``perfbench/`` is written.  ``data/golden.json`` holds, per instance,
the step count, ``(mu, steps)`` for each outer iteration, the final ``mu``
and the ``h_ub`` that the check reads at the returned point, and one sha256
over every ``StepRecord`` field but ``elapsed`` of all 48 solves::

    python tests/golden.py --check
    python tests/golden.py --write

``--check`` compares counts exactly and floats within 1e-12 relative, names
the first instance and field that differ, prints whether the digest
matches, and exits 1 on a difference.  A change that moves a trace on
purpose rewrites the file with ``--write`` and says so.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    # one BLAS thread, as the benchmark runs, set before numpy is imported;
    # and the package of this checkout
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from geoipm import solver, subspace  # noqa: E402

GOLDEN = Path(__file__).with_name("data") / "golden.json"
SEEDS = (0, 7919)
RTOL = 1e-12
FIELDS = tuple(f.name for f in dataclasses.fields(solver.StepRecord) if f.name != "elapsed")


def _workloads():
    """``perfbench/workloads.py``, loaded from its file under its own name."""
    if "workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["workloads"] = module
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


class _NoClock:
    def tick(self, force=False):
        pass


def run(names=None, seeds=SEEDS):
    """Solve and check each instance of the workloads ``names`` (all by
    default) at ``seeds``; returns ``({key: entry}, sha256 hex digest)``."""
    wls = _workloads()
    entries, digest = {}, hashlib.sha256()
    for name in names or tuple(wls.WORKLOADS):
        wl = wls.WORKLOADS[name]
        for seed in seeds:
            with tempfile.TemporaryDirectory() as workdir:
                instances, _ = wls.setup_once(wl, seed, wls.INSTANCES, Path(workdir), _NoClock())
            for inst in instances:
                params = wls.params_for(wl, inst.problem)
                state, trace, pair = wls.solve(wl, inst, params)
                error = wls.check(wl, inst, params, state, trace, pair)
                if error is not None:
                    raise AssertionError(f"{name} seed {seed} #{inst.index}: {error}")
                records = np.array([[getattr(rec, f) for f in FIELDS] for rec in trace.records], dtype=float)
                digest.update(records.tobytes())
                steps = [rec.outer for rec in trace.records]
                entries[f"{name} seed {seed} #{inst.index}"] = {
                    "steps": trace.newton_steps,
                    "outer": [[snap.mu, steps.count(snap.outer)] for snap in trace.snapshots],
                    "mu": state.mu,
                    "h_ub": subspace.newton_direction(inst.problem, state.w, state.mu).h_ub,
                }
    return entries, digest.hexdigest()


def _close(x, y) -> bool:
    return x == y or abs(x - y) <= RTOL * abs(y)


def first_difference(got: dict, expected: dict) -> str | None:
    """The first instance and field of ``got`` that differ from ``expected``."""
    for key, entry in got.items():
        ref = expected.get(key)
        if ref is None:
            return f"{key}: not in {GOLDEN.name}"
        if entry["steps"] != ref["steps"]:
            return f"{key}: steps = {entry['steps']}, golden {ref['steps']}"
        if len(entry["outer"]) != len(ref["outer"]):
            return f"{key}: {len(entry['outer'])} outer iterations, golden {len(ref['outer'])}"
        for i, ((mu, steps), (mu_ref, steps_ref)) in enumerate(zip(entry["outer"], ref["outer"])):
            if steps != steps_ref:
                return f"{key}: outer {i} steps = {steps}, golden {steps_ref}"
            if not _close(mu, mu_ref):
                return f"{key}: outer {i} mu = {mu!r}, golden {mu_ref!r}"
        for name in ("mu", "h_ub"):
            if not _close(entry[name], ref[name]):
                return f"{key}: {name} = {entry[name]!r}, golden {ref[name]!r}"
    return None


def _write(entries: dict, digest: str) -> None:
    # one instance a line; json writes inf as Infinity, which it reads back
    lines = (f"  {json.dumps(key)}: {json.dumps(entry)}" for key, entry in entries.items())
    body = ",\n".join(lines)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(f'{{\n"digest": {json.dumps(digest)},\n"instances": {{\n{body}\n}}\n}}\n')


def main(argv) -> int:
    if argv not in (["--write"], ["--check"]):
        sys.exit(__doc__)
    entries, digest = run()
    if argv == ["--write"]:
        _write(entries, digest)
        print(f"{len(entries)} instances written to {GOLDEN}, digest {digest}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    diff = first_difference(entries, golden["instances"])
    missing = set(golden["instances"]) - set(entries)
    if diff is None and missing:
        diff = f"{min(missing)}: in {GOLDEN.name} but not solved"
    print(f"digest {digest}: {'matches' if digest == golden['digest'] else 'differs from ' + golden['digest']}")
    if diff:
        print(f"golden check failed: {diff}")
        return 1
    print(f"golden check passed: {len(entries)} instances within {RTOL:g} relative")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
