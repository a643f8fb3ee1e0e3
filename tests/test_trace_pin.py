"""Step-by-step trace pin: the records of five small seeded solves.

A refactor that keeps the arithmetic keeps these records.  The test solves
each case again and compares its step count exactly and every
``StepRecord`` field but ``elapsed`` within ``1e-9 max(1, |x|)`` of the
committed file ``data/trace_pin.json``:

* fig3 ``psd(6)`` trial 0 by ``shortstep`` from the oracle centre;
* a basis-form problem on 3 psd(6) + 2 soc(4) + orthant(3) (four runs) by
  ``longstep`` from e;
* the same problem by ``shortstep`` from its oracle centre, whose full
  steps map the PSD runs by Taylor polynomials of d and the second-order
  and orthant runs in closed form;
* the operator form of that problem by ``longstep`` from e;
* an operator form with two rows of ``B`` on the same cone by ``longstep``
  from e: 50 columns, so the representation spans the complement of the
  image of ker B under A, and s0 comes from the solution of ``By = g``.

A change that moves a trace on purpose rewrites the file and says so::

    PYTHONPATH=src python tests/test_trace_pin.py --write

The benchmark instances have their own golden file (``golden.py``); the
last test checks the seed-0 instances of sdp_short and mixed_op against it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness.experiments import MU0, trial_seed
from geoipm.harness.generate import generate_random_sdp

import golden
from util import random_basis_problem

PIN = Path(__file__).with_name("data") / "trace_pin.json"
FIELDS = tuple(f.name for f in dataclasses.fields(V.StepRecord) if f.name != "elapsed")
RTOL = 1e-9
MU_F = MU0 / 1024.0
MULTI = J.ConeDescriptor((J.Psd(6),) * 3 + (J.SecondOrder(4),) * 2 + (J.Orthant(3),))


def _fig3_short():
    problem = generate_random_sdp(6, 10, trial_seed(0, 6, 0))
    params = V.ShortStepParams(V.SHORT_BETA, V.LongStepParams.eps, problem.cone.rank)
    return V.solve(problem, V.oracle_center(problem, MU0), MU0, MU_F, params)


def _multi_basis():
    return random_basis_problem(MULTI, 10, np.random.default_rng(17))


def _multi_operator_rows():
    """Strictly feasible by construction: ``x0, s0 = exp(Gaussian)``,
    ``c = s0 + A y0``, ``g = B y0`` and ``b = A* x0 + B^T z0``."""
    cone, rng = MULTI, np.random.default_rng(17)
    x0 = J.exp(J.element(cone, rng.standard_normal(cone.dim)))
    s0 = J.exp(J.element(cone, rng.standard_normal(cone.dim)))
    cols = tuple(J.element(cone, rng.standard_normal(cone.dim)) for _ in range(50))
    B = rng.standard_normal((2, len(cols)))
    y0, z0 = rng.standard_normal(len(cols)), rng.standard_normal(2)
    c = s0 + J.element(cone, np.sum([y * a.coords for y, a in zip(y0, cols)], axis=0))
    b = np.array([J.inner(a, x0) for a in cols]) + B.T @ z0
    return S.ConicProblem(cone, S.OperatorForm(columns=cols, B=B, b=b, c=c, g=B @ y0))


def _multi_long(problem):
    return V.solve(problem, J.identity(problem.cone), MU0, MU_F, V.LongStepParams())


def _multi_short():
    problem = _multi_basis()
    params = V.ShortStepParams(V.SHORT_BETA, V.LongStepParams.eps, problem.cone.rank)
    return V.solve(problem, V.oracle_center(problem, MU0), MU0, MU_F, params)


CASES = {
    "fig3_psd6_short": _fig3_short,
    "multi_basis_long": lambda: _multi_long(_multi_basis()),
    "multi_operator_long": lambda: _multi_long(S.as_operator_form(_multi_basis())),
    "multi_operator_rows_long": lambda: _multi_long(_multi_operator_rows()),
    "multi_basis_short": _multi_short,
}


def _records(result) -> list:
    assert result.status == V.CONVERGED, result.error
    return [[getattr(rec, name) for name in FIELDS] for rec in result.trace.records]


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_trace_matches_pin(case, pinned):
    expected, got = pinned[case], _records(CASES[case]())
    assert len(got) == len(expected), f"{case}: {len(got)} steps, pinned {len(expected)}"
    for i, (row, ref) in enumerate(zip(got, expected)):
        for name, x, y in zip(FIELDS, row, ref):
            same = x == y or abs(x - y) <= RTOL * max(1.0, abs(y))
            assert same, f"{case} step {i}: {name} = {x!r}, pinned {y!r}"


def test_benchmark_instances_match_the_golden_file():
    """The 16 seed-0 instances of sdp_short and mixed_op, as the benchmark
    solves them, against ``data/golden.json`` (``golden.py --check`` runs all 48)."""
    entries, _ = golden.run(("sdp_short", "mixed_op"), seeds=(0,))
    assert len(entries) == 16
    assert golden.first_difference(entries, json.loads(golden.GOLDEN.read_text())["instances"]) is None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    data = {case: _records(run()) for case, run in CASES.items()}
    PIN.parent.mkdir(exist_ok=True)
    # one record a line; json writes inf as Infinity, which it reads back
    cases = (f"{json.dumps(case)}: [\n" + ",\n".join(map(json.dumps, rows)) + "\n]" for case, rows in data.items())
    PIN.write_text("{\n" + ",\n".join(cases) + "\n}\n")
    print({case: len(rows) for case, rows in data.items()}, "steps written to", PIN)
