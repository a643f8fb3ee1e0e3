"""CLI subcommands and exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import geoipm
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import cli, experiments, io

from util import random_basis_problem

ORTH6 = J.ConeDescriptor((J.Orthant(6),))


def test_gen_then_solve_long(tmp_path):
    problem_file = tmp_path / "p.json"
    rc = cli.solve_cli(["gen", "--n", "8", "--dim-l", "3", "--seed", "7", "--out", str(problem_file)])
    assert rc == 0
    trace_file = tmp_path / "trace.csv"
    feas_file = tmp_path / "feas.json"
    rc = cli.solve_cli(
        [
            "solve", "--input", str(problem_file), "--algo", "long",
            "--trace", str(trace_file), "--feasible-out", str(feas_file),
        ]
    )
    assert rc == 0
    lines = trace_file.read_text().splitlines()
    assert lines[0] == "outer,mu,h_ub,h_lb,norm_d,norm_d_inf,step,elapsed"
    mus = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(mus, mus[1:]))
    # the feasible pair written next to the run re-validates
    problem = io.load_problem(problem_file)
    x, s, mu, gap = io.read_feasible_pair(feas_file, problem.cone)
    rp, rd = S.affine_residuals(problem, x, s)
    assert rp <= 1e-8 and rd <= 1e-8
    assert J.min_eigenvalue(x) >= -1e-10 and J.min_eigenvalue(s) >= -1e-10
    assert gap > 0.0


def test_gen_writes_stdout(capsys):
    rc = cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["form"] == "basis"
    assert doc["cone"] == [{"type": "psd", "size": 4}]


def test_solve_short_algo(tmp_path):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "5", "--dim-l", "3", "--seed", "3", "--out", str(problem_file)])
    rc = cli.solve_cli(
        ["solve", "--input", str(problem_file), "--algo", "short", "--muf", "0.125"]
    )
    assert rc == 0


def test_long_step_defaults_are_long_step_params(tmp_path, monkeypatch):
    """``geoipm solve`` without flags and the default experiment config run
    ``LongStepParams()``."""
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "1", "--out", str(problem_file)])
    seen = []
    real = V.solve

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(V, "solve", spy)
    assert cli.solve_cli(["solve", "--input", str(problem_file)]) == 0
    assert seen == [V.LongStepParams()]
    assert experiments.ExperimentConfig().long_params() == V.LongStepParams()


@pytest.mark.parametrize("beta", ["1e200", "1e308"])
def test_solve_with_huge_beta(tmp_path, capsys, beta):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "6", "--dim-l", "4", "--seed", "1", "--out", str(problem_file)])
    capsys.readouterr()
    assert cli.solve_cli(["solve", "--input", str(problem_file), "--beta", beta]) == 0
    assert capsys.readouterr().out.startswith("status=converged")


def test_malformed_json_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.solve_cli(["solve", "--input", str(bad)]) == 3
    missing = tmp_path / "missing.json"
    assert cli.solve_cli(["solve", "--input", str(missing)]) == 3
    nan = tmp_path / "nan.json"
    nan.write_text(
        '{"cone": [{"type": "orthant", "size": 2}], "form": "basis",'
        ' "x0": [NaN, 1.0], "s0": [1.0, 1.0], "basis_L": []}'
    )
    assert cli.solve_cli(["solve", "--input", str(nan)]) == 3


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_bench_config_rejects_non_finite_literals(tmp_path, capsys, literal):
    """The experiment config is read like a problem file: a non-finite
    literal exits 3 with one line that names the config."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": %s}' % literal)
    rc = cli.solve_cli(["bench", "--experiment", "fig4", "--config", str(cfg), "--outdir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert rc == 3 and out == ""
    assert err == f"geoipm: invalid input: non-finite literal '{literal}' in experiment config\n"
    assert not (tmp_path / "fig4_center.csv").exists()


def test_muf_above_mu0_single_center(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "5", "--out", str(problem_file)])
    capsys.readouterr()
    rc = cli.solve_cli(
        ["solve", "--input", str(problem_file), "--mu0", "1.0", "--muf", "2.0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "mu=1.0" in out


@pytest.mark.parametrize("case", ["solve --trace", "solve --feasible-out", "gen --out", "bench --outdir"])
def test_unwritable_output_path_exit_3(tmp_path, capsys, case):
    """A directory given for an output file, a file for the output
    directory, or a missing parent directory: exit 3 and one stderr line."""
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "1", "--out", str(problem_file)])
    missing = str(tmp_path / "missing" / "x.json")
    argv = {
        "solve --trace": ["solve", "--input", str(problem_file), "--trace", str(tmp_path)],
        "solve --feasible-out": ["solve", "--input", str(problem_file), "--feasible-out", missing],
        "gen --out": ["gen", "--n", "4", "--dim-l", "3", "--out", missing],
        "bench --outdir": ["bench", "--experiment", "fig4", "--outdir", str(problem_file)],
    }[case]
    capsys.readouterr()
    assert cli.solve_cli(argv) == 3
    out, err = capsys.readouterr()
    assert err.startswith("geoipm: cannot write output: ") and err.count("\n") == 1, err
    # the solve reports its result before it writes the files it was asked for
    assert out.startswith("status=converged") == case.startswith("solve")


def test_iteration_cap_exit_2(tmp_path):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "6", "--out", str(problem_file)])
    rc = cli.solve_cli(
        ["solve", "--input", str(problem_file), "--algo", "long", "--max-outer", "0"]
    )
    assert rc == 2


def test_failed_solve_writes_its_partial_trace(tmp_path, capsys):
    """A tracker that hits its cap still writes the steps it took to
    ``--trace``, under the usual header; the oracle of ``--algo short``,
    whose trace is not the solve's, writes nothing."""
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "8", "--dim-l", "3", "--seed", "7", "--out", str(problem_file)])
    trace_file = tmp_path / "trace.csv"
    solve = ["solve", "--input", str(problem_file), "--max-newton", "2", "--trace", str(trace_file)]
    capsys.readouterr()
    assert cli.solve_cli(solve) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "geoipm: iteration cap exceeded: centering did not reach h_ub <= 10 within 2 Newton steps\n"
    lines = trace_file.read_text().splitlines()
    assert lines[0] == ",".join(cli.TRACE_FIELDS)
    problem = io.load_problem(problem_file)
    with pytest.raises(geoipm.IterationLimitError) as exc:
        geoipm.longstep(problem, J.identity(problem.cone), 1.0, 1.0 / 1024.0, geoipm.LongStepParams(max_newton=2))
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == exc.value.trace.newton_steps == 2
    for row, rec in zip(rows, exc.value.trace.records):
        assert [float(v) for v in row[:-1]] == list(dataclasses.astuple(rec)[:-1])
    trace_file.unlink()
    assert cli.solve_cli([*solve, "--algo", "short"]) == 2
    assert "centering oracle failed" in capsys.readouterr().err
    assert not trace_file.exists()


@pytest.mark.parametrize("algo", ["short", "long"])
def test_solve_from_a_random_start(tmp_path, capsys, algo):
    """``--seed`` starts at a random interior point; the short algorithm
    centers it first (``oracle_center(warm=...)``)."""
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "8", "--dim-l", "3", "--seed", "7", "--out", str(problem_file)])
    capsys.readouterr()
    assert cli.solve_cli(["solve", "--input", str(problem_file), "--algo", algo, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"status=converged algo={algo} ")
    assert float(out.split("h_ub=")[1]) <= 1e-4


@pytest.mark.parametrize(
    "flags",
    [
        ["--mu0", "nan"],
        ["--mu0", "inf"],
        ["--muf", "inf"],
        ["--muf", "nan"],
        ["--max-newton", "-1"],
        ["--max-outer", "-3"],
        ["--algo", "short", "--max-newton", "-1"],
        ["--beta", "inf"],
    ],
    ids=" ".join,
)
def test_bad_parameters_exit_3(tmp_path, capsys, flags):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "4", "--dim-l", "2", "--seed", "6", "--out", str(problem_file)])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.solve_cli(["solve", "--input", str(problem_file), *flags])
    assert rc == 3
    assert "invalid input" in capsys.readouterr().err


def test_short_start_obeys_max_newton(tmp_path, capsys):
    problem_file = tmp_path / "p.json"
    cli.solve_cli(["gen", "--n", "5", "--dim-l", "3", "--seed", "3", "--out", str(problem_file)])
    capsys.readouterr()
    # the centering of the start at mu0 is capped like every other centering pass
    rc = cli.solve_cli(
        ["solve", "--input", str(problem_file), "--algo", "short", "--muf", "0.125",
         "--max-newton", "1"]
    )
    assert rc == 2
    assert "iteration cap exceeded: centering oracle failed" in capsys.readouterr().err


def test_non_integer_block_size_exit_3(tmp_path, capsys):
    path = tmp_path / "p.json"
    for size in ("2.5", "true"):
        path.write_text(
            '{"cone": [{"type": "psd", "size": %s}], "form": "basis",'
            ' "x0": [1.0, 0.0, 1.0], "s0": [1.0, 0.0, 1.0], "basis_L": []}' % size
        )
        assert cli.solve_cli(["solve", "--input", str(path)]) == 3
        assert "must be an integer" in capsys.readouterr().err


def test_basis_longer_than_the_cone_dimension_exit_3(tmp_path, capsys):
    # four basis vectors of orthant(3) are dependent: rejected at load, not at solve
    rng = np.random.default_rng(3)
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "cone": [{"type": "orthant", "size": 3}], "form": "basis",
        "x0": [1.0, 1.0, 1.0], "s0": [1.0, 1.0, 1.0],
        "basis_L": rng.standard_normal((4, 3)).tolist(),
    }))
    assert cli.solve_cli(["solve", "--input", str(path)]) == 3
    assert "dimension 3" in capsys.readouterr().err


@pytest.mark.parametrize("g, exit_code", [([0.0], 0), ([1.0], 4), ([], 3)], ids=["g=0", "g=1", "no-g"])
def test_b_with_a_row_and_no_columns(tmp_path, g, exit_code):
    """With no operator columns, ``"B": [[]]`` is one row of zero columns:
    By = g reads 0 = g, which g = [0] solves and g = [1] leaves empty, and
    a missing g does not match B's row count."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "cone": [{"type": "orthant", "size": 2}], "form": "operator",
        "A": [], "b": [], "B": [[]], "g": g, "c": [1.0, 2.0],
    }))
    assert cli.solve_cli(["solve", "--input", str(path)]) == exit_code


def test_numerical_failure_exit_4(tmp_path):
    rng = np.random.default_rng(2)
    prob = random_basis_problem(ORTH6, 2, rng)
    op = S.as_operator_form(prob)
    m = len(op.form.columns)
    B = np.zeros((2, m))
    B[0, 0] = 1.0
    B[1, 0] = 1.0
    # By = g asks y_0 = 0 and y_0 = 1: the dual affine set is empty
    bad = S.ConicProblem(
        ORTH6,
        S.OperatorForm(columns=op.form.columns, B=B, b=op.form.b, c=op.form.c, g=np.array([0.0, 1.0])),
    )
    path = tmp_path / "inconsistent.json"
    io.save_problem(bad, path)
    assert cli.solve_cli(["solve", "--input", str(path)]) == 4


def test_bench_fig4(tmp_path):
    cfg = {
        "seed": 11, "n_values": [4], "trials": 1, "dim_l": 3,
        "fig4_n": 4, "fig4_deltas": [0.5], "fig4_eps": 1e-8,
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    rc = cli.solve_cli(
        ["bench", "--experiment", "fig4", "--config", str(cfg_file), "--outdir", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "fig4_center.csv").exists()
    bad_cfg = tmp_path / "bad.json"
    small = '"n_values": [4], "trials": 1, "dim_l": 3, "fig4_n": 4, "fig4_deltas": [0.5]'
    for experiment, bad in (
        ("fig4", '{"nope": 1}'),
        ("fig4", '{"trials": "5"}'),
        ("fig4", '{"n_values": 5}'),
        ("fig4", '{"trials": 2.5}'),
        ("fig4", '{"trials": true}'),
        ("fig3", '{"n_values": [4.7], "trials": 1, "dim_l": 3}'),
        ("fig4", '{"fig4_n": 4.0}'),
        ("fig4", '{"seed": 0.5}'),
        ("fig4", '{"dim_l": 3.5}'),
        ("fig4", "[1, 2]"),
        ("fig4", '{"gamma": 0, %s}' % small),
        ("fig3", '{"gamma": 1.5, %s}' % small),
        ("fig3", '{"short_beta": 0.9, %s}' % small),
        # JSON true is not a number, nor is a string
        ("fig4", '{"mu0": true, %s}' % small),
        ("fig4", '{"fig4_eps": true, %s}' % small),
        ("fig4", '{"n_values": [4], "trials": 1, "dim_l": 3, "fig4_n": 4, "fig4_deltas": [true]}'),
        ("fig3", '{"mu_ratio": true, %s}' % small),
        ("fig3", '{"gamma": "0.5", %s}' % small),
        ("fig3", '{"long_eps": null, %s}' % small),
    ):
        bad_cfg.write_text(bad)
        rc = cli.solve_cli(
            ["bench", "--experiment", experiment, "--config", str(bad_cfg), "--outdir", str(tmp_path)]
        )
        assert rc == 3, bad


def test_bench_config_sizes_are_checked_before_any_solve(tmp_path, capsys):
    """psd(4) cannot host dim L = 12; the psd(30) trials before it used to
    run first."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n_values": [30, 4], "dim_l": 12}')
    rc = cli.solve_cli(["bench", "--experiment", "fig3", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
    assert rc == 3
    assert "experiment size n=4, dim_l=12" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["geoipm", "geoipm.harness.cli"])
def test_module_forms_run_the_cli(module):
    # the directory that holds the package, so the child imports this checkout
    env = dict(os.environ, PYTHONPATH=str(Path(geoipm.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-m", module, "gen", "--n", "3", "--dim-l", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["form"] == "basis"
    assert doc["cone"] == [{"type": "psd", "size": 3}]


_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # from here on, every scipy import raises ImportError

import numpy as np

import geoipm
import geoipm.harness.cli
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import generate_random_sdp


def converged(state, trace, eps):
    assert trace.status == V.CONVERGED
    assert state.h_ub <= eps


problem = generate_random_sdp(6, 3, 0)
params = V.LongStepParams()
state, trace = V.longstep(problem, J.identity(problem.cone), 1.0, 1e-3, params)
converged(state, trace, params.eps)
short = V.shortstep_params(0.5, 1e-4, problem.cone.rank)
state, trace = V.shortstep(problem, V.oracle_center(problem, 1.0), 1.0, 1e-3, short)
converged(state, trace, short.eps)

# an operator form with one row of B: {c - Ay : By = g} and
# {x : A*x + B*z = b}, strictly feasible at (x0, s0)
cone = J.ConeDescriptor((J.Orthant(3), J.SecondOrder(3), J.Psd(2)))
rng = np.random.default_rng(7)
x0 = J.exp(J.element(cone, 0.3 * rng.standard_normal(cone.dim)))
s0 = J.exp(J.element(cone, 0.3 * rng.standard_normal(cone.dim)))
columns = [J.element(cone, rng.standard_normal(cone.dim)) for _ in range(4)]
B = np.array([[1.0, -1.0, 0.5, 2.0]])
y0, z0 = rng.standard_normal(4), np.array([0.5])
c = s0 + J.element(cone, sum(y * a.coords for y, a in zip(y0, columns)))
b = np.array([J.inner(a, x0) for a in columns]) + B.T @ z0
problem = S.ConicProblem(cone, S.OperatorForm(columns=columns, B=B, b=b, c=c, g=B @ y0))
state, trace = V.longstep(problem, J.identity(cone), 1.0, 1e-3, params)
converged(state, trace, params.eps)

loaded = sorted(m for m, mod in sys.modules.items() if m.startswith("scipy") and mod is not None)
assert not loaded, loaded
print("ok")
"""


def test_runs_without_scipy():
    """The solver needs numpy alone: with every scipy import made to fail,
    the package and its CLI import, and both trackers solve a basis-form
    SDP and an operator form with a row of B."""
    env = dict(os.environ, PYTHONPATH=str(Path(geoipm.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"
