"""Command-line front end.

Subcommands: ``gen`` (random instance -> problem file), ``solve`` (run the
short- or long-step algorithm on a problem file), ``bench`` (experiment
drivers).  Exit codes: 0 converged, 2 iteration cap, 3 parse/parameter
error, a usage error (an unknown subcommand, a missing argument, a value
argparse cannot read, a negative ``--seed``) or a path that cannot be read
or written (a missing directory, a directory given for a file), 4
numerical failure; one-line diagnostics go to stderr.  A problem file of
either form gets its rank test, and an operator form its By = g test, when
it is read, so a defect there exits 3 before any solve starts.  ``--algo
short`` reads its whole mu schedule before it centres the start, so a
``--muf`` the schedule cannot reach exits 3 without running the centering
oracle.  ``solve`` prints its
status line before it writes the files it is asked for, so a path that
fails there follows the status line.  A solve that fails (exit 2 or 4)
prints no status line, but ``--trace`` still gets the steps it recorded.
A failure of the centering oracle that ``--algo short`` starts from keeps
its error type and names the oracle: at its cap an IterationLimitError
(exit 2), otherwise a numerical failure (exit 4), such as a far phase whose
last iterate fails the interior test (fig3 n = 100).  Either carries the
oracle's own trace, which ``--trace`` does not get.
``bench --config`` is read like a problem file, so invalid JSON and the
literals NaN and Infinity exit 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .. import jordan, solver
from ..errors import (
    GeoipmError,
    IterationLimitError,
    ParameterError,
    ProblemFormatError,
)
from . import experiments, generate, io

__all__ = ["solve_cli", "main"]

EXIT_OK = 0
EXIT_ITERATION_CAP = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4

# one CSV column per StepRecord field, in declaration order
TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(solver.StepRecord))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ParameterError (exit 3,
    one line) in place of printing the usage and exiting 2."""

    def error(self, message):
        raise ParameterError(message)


def _seed(text: str) -> int:
    """A ``--seed`` value, a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geoipm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random SDP instance")
    p_gen.add_argument("--n", type=int, required=True, help="matrix side of the PSD cone")
    p_gen.add_argument("--dim-l", type=int, default=10, help="dimension of the subspace L")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")

    p_solve = sub.add_parser("solve", help="track the central path on a problem file")
    p_solve.add_argument("--input", type=Path, required=True)
    p_solve.add_argument("--algo", choices=("short", "long"), default="long")
    p_solve.add_argument("--mu0", type=float, default=1.0)
    p_solve.add_argument("--muf", type=float, default=None, help="default mu0/1024")
    p_solve.add_argument("--eps", type=float, default=solver.LongStepParams.eps, help="final tolerance")
    p_solve.add_argument("--beta", type=float, default=None,
                         help="divergence bound (long) / contraction target (short)")
    p_solve.add_argument("--alpha", type=float, default=solver.LongStepParams.alpha,
                         help="recentering tolerance (long)")
    p_solve.add_argument("--gamma", type=float, default=solver.LongStepParams.gamma, help="step fraction of t_max")
    p_solve.add_argument("--max-newton", type=int, default=solver.DEFAULT_CENTER_CAP,
                         help="Newton steps per centering pass, the --algo short start included")
    p_solve.add_argument("--max-outer", type=int, default=solver.DEFAULT_OUTER_CAP)
    p_solve.add_argument("--trace", type=Path, default=None, help="write per-step CSV here")
    p_solve.add_argument("--feasible-out", type=Path, default=None,
                         help="write the extracted feasible (x, s)")
    p_solve.add_argument("--seed", type=_seed, default=None,
                         help="randomize the initial point (default: identity)")

    p_bench = sub.add_parser("bench", help="run an experiment driver")
    p_bench.add_argument("--experiment", choices=("fig3", "fig4"), required=True)
    p_bench.add_argument("--config", type=Path, default=None,
                         help="JSON experiment config (NaN and Infinity are rejected)")
    p_bench.add_argument("--outdir", type=Path, default=Path("."))
    return parser


def _cmd_gen(args) -> int:
    problem = generate.generate_random_sdp(args.n, args.dim_l, args.seed)
    if args.out is None:
        print(json.dumps(io.problem_to_dict(problem)))
    else:
        io.save_problem(problem, args.out)
    return EXIT_OK


def _initial_point(problem, seed):
    if seed is None:
        return jordan.identity(problem.cone)
    rng = np.random.default_rng(int(seed))
    return jordan.exp(jordan.element(problem.cone, 0.5 * rng.standard_normal(problem.cone.dim)))


def _write_trace(path: Path, trace: solver.SolverTrace) -> None:
    io.write_csv(path, ",".join(TRACE_FIELDS), map(dataclasses.astuple, trace.records))


def _cmd_solve(args) -> int:
    problem = io.load_problem(args.input)
    mu0 = args.mu0
    mu_f = args.muf if args.muf is not None else mu0 / 1024.0
    if not (0.0 < mu0 < math.inf and 0.0 < mu_f < math.inf):
        raise ParameterError("mu0 and muf must be positive and finite")
    w0 = _initial_point(problem, args.seed)
    if args.algo == "short":
        beta = args.beta if args.beta is not None else solver.SHORT_BETA
        params = solver.ShortStepParams(beta, args.eps, problem.cone.rank)
        # a mu_f the schedule cannot reach fails here, before the centering
        params.outer_iterations(mu0, mu_f)
        # the step-count guarantee assumes a centered start
        w0 = solver.oracle_center(problem, mu0, warm=w0, cap=args.max_newton)
    else:
        beta = args.beta if args.beta is not None else solver.LongStepParams.beta
        params = solver.LongStepParams(
            beta=beta, alpha=args.alpha, eps=args.eps, gamma=args.gamma,
            max_newton=args.max_newton, max_outer=args.max_outer,
        )
    result = solver.solve(problem, w0, mu0, mu_f, params)
    if result.error is None:
        print(
            f"status={result.status} algo={args.algo} newton_steps={result.trace.newton_steps} "
            f"mu={result.nd.mu!r} h_ub={result.nd.h_ub!r}"
        )
    # a failed solve writes what it recorded; a failed oracle above writes none
    if args.trace is not None:
        _write_trace(args.trace, result.trace)
    if result.error is not None:
        raise result.error
    if args.feasible_out is not None:
        x, s = result.pair
        io.write_feasible_pair(args.feasible_out, x, s, result.nd.mu, result.gap)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.config is not None:
        config = experiments.ExperimentConfig.from_dict(io._read_json(args.config, "experiment config"))
    else:
        config = experiments.ExperimentConfig()
    if args.experiment == "fig3":
        experiments.run_experiment_fig3(config, args.outdir)
    else:
        experiments.run_experiment_fig4(config, args.outdir)
    return EXIT_OK


def solve_cli(argv=None) -> int:
    """Entry point returning the process exit status."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except IterationLimitError as exc:
        print(f"geoipm: iteration cap exceeded: {exc}", file=sys.stderr)
        return EXIT_ITERATION_CAP
    except (ProblemFormatError, ParameterError, ValueError) as exc:
        print(f"geoipm: invalid input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"geoipm: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GeoipmError, np.linalg.LinAlgError) as exc:
        print(f"geoipm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(solve_cli())


if __name__ == "__main__":
    main()
