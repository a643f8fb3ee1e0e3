"""Instance generation, problem files, and the experiment drivers."""

import json
import math

import numpy as np
import pytest

from geoipm import jordan as J
from geoipm import subspace as S
from geoipm.errors import ProblemFormatError
from geoipm.harness import experiments, generate, io

from util import random_basis_problem


def test_generator_is_deterministic():
    p1 = generate.generate_random_sdp(6, 4, seed=123)
    p2 = generate.generate_random_sdp(6, 4, seed=123)
    assert np.array_equal(p1.form.x0.coords, p2.form.x0.coords)
    assert np.array_equal(p1.form.s0.coords, p2.form.s0.coords)
    for a, b in zip(p1.form.basis, p2.form.basis):
        assert np.array_equal(a.coords, b.coords)
    p3 = generate.generate_random_sdp(6, 4, seed=124)
    assert not np.array_equal(p1.form.x0.coords, p3.form.x0.coords)


def test_generator_output_properties():
    prob = generate.generate_random_sdp(20, 10, seed=5)
    assert prob.cone.rank == 20
    assert J.min_eigenvalue(prob.form.x0) > 0
    assert J.min_eigenvalue(prob.form.s0) > 0
    stacked = np.column_stack([l.coords for l in prob.form.basis])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == 10


def test_generator_validation():
    with pytest.raises(ValueError):
        generate.generate_random_sdp(1, 1, seed=0)
    with pytest.raises(ValueError):
        generate.generate_random_sdp(3, 6, seed=0)  # dim_l >= n(n+1)/2


def test_problem_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    cone = J.ConeDescriptor((J.Orthant(2), J.SecondOrder(3), J.Psd(2)))
    prob = random_basis_problem(cone, 3, rng)
    path = tmp_path / "p.json"
    io.save_problem(prob, path)
    back = io.load_problem(path)
    assert back.cone == prob.cone
    assert np.array_equal(back.form.x0.coords, prob.form.x0.coords)
    assert len(back.form.basis) == 3

    op = S.as_operator_form(prob)
    io.save_problem(op, path)
    back = io.load_problem(path)
    assert isinstance(back.form, S.OperatorForm)
    assert np.allclose(back.form.b, op.form.b)


def test_problem_file_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        io.load_problem(path)

    path.write_text(json.dumps({"cone": [], "form": "basis"}))
    with pytest.raises(ProblemFormatError):
        io.load_problem(path)

    doc = {
        "cone": [{"type": "orthant", "size": 2}],
        "form": "basis",
        "x0": [1.0, 2.0, 3.0],  # wrong length
        "s0": [1.0, 1.0],
        "basis_L": [],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError):
        io.load_problem(path)

    path.write_text(
        '{"cone": [{"type": "orthant", "size": 2}], "form": "basis",'
        ' "x0": [Infinity, 1.0], "s0": [1.0, 1.0], "basis_L": []}'
    )
    with pytest.raises(ProblemFormatError):
        io.load_problem(path)

    doc["x0"] = [1.0, 1.0]
    doc["form"] = "mystery"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFormatError):
        io.load_problem(path)

    # block sizes must be integers: 2.5 is not psd(2), true is not psd(1)
    doc = {"form": "basis", "x0": [1.0], "s0": [1.0], "basis_L": []}
    for size in (2.5, 1.0, True, "1", None):
        doc["cone"] = [{"type": "psd", "size": size}]
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match="integer"):
            io.load_problem(path)


def test_experiment_config_validation():
    with pytest.raises(ProblemFormatError):
        experiments.ExperimentConfig(trials=0)
    with pytest.raises(ProblemFormatError):
        experiments.ExperimentConfig.from_dict({"bogus_key": 1})
    cfg = experiments.ExperimentConfig.from_dict({"seed": 9, "n_values": [4], "trials": 2, "dim_l": 3})
    assert cfg.n_values == (4,)
    # instance sizes are checked before any solve: psd(n) needs n >= 2 and
    # 1 <= dim_l < n(n+1)/2, for every fig3 size and for fig4
    for sizes in (dict(n_values=(4, 1), dim_l=3), dict(n_values=(4,), dim_l=10),
                  dict(n_values=(4,), dim_l=3, fig4_n=1), dict(n_values=(30, 4), dim_l=12)):
        with pytest.raises(ProblemFormatError, match="experiment size"):
            experiments.ExperimentConfig(**sizes)
    for key, value in (
        ("seed", 1.5), ("trials", 2.5), ("trials", True), ("dim_l", 3.0),
        ("fig4_n", "4"), ("n_values", [4.7]), ("n_values", [False]),
    ):
        with pytest.raises(ProblemFormatError, match="integer"):
            experiments.ExperimentConfig.from_dict({key: value})


TINY = dict(seed=11, n_values=(4,), trials=2, dim_l=3, mu_ratio=64.0, fig4_n=4,
            fig4_deltas=(0.3, 2.0), fig4_eps=1e-9)


def test_fig3_outputs(tmp_path):
    cfg = experiments.ExperimentConfig(**TINY)
    summary = experiments.run_experiment_fig3(cfg, tmp_path)
    steps_lines = (tmp_path / "fig3_steps.csv").read_text().splitlines()
    assert steps_lines[0] == "n,algo,trial,steps,errors"
    rows = [line.split(",") for line in steps_lines[1:]]
    assert all(r[4] == "" for r in rows)  # no failures
    short_counts = {int(r[3]) for r in rows if r[1] == "short"}
    assert len(short_counts) == 1  # instance-independent
    long_counts = [int(r[3]) for r in rows if r[1] == "long"]
    assert all(l < min(short_counts) for l in long_counts)
    assert summary[(4, "short")][1] == 0.0

    mu_lines = (tmp_path / "fig3_mu_trace.csv").read_text().splitlines()
    assert mu_lines[0] == "step,mu"
    mus = [float(line.split(",")[1]) for line in mu_lines[1:]]
    assert mus[0] == cfg.mu0
    assert all(a > b for a, b in zip(mus, mus[1:]))
    assert mus[-1] <= cfg.mu0 / cfg.mu_ratio


def test_fig3_reproducible(tmp_path):
    cfg = experiments.ExperimentConfig(**TINY)
    experiments.run_experiment_fig3(cfg, tmp_path / "a")
    experiments.run_experiment_fig3(cfg, tmp_path / "b")
    for name in ("fig3_steps.csv", "fig3_mu_trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fig4_outputs(tmp_path):
    cfg = experiments.ExperimentConfig(**TINY)
    path = experiments.run_experiment_fig4(cfg, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "init_id,iter,delta,h_ub"
    rows = [line.split(",") for line in lines[1:]]
    by_init = {}
    for r in rows:
        by_init.setdefault(int(r[0]), []).append((int(r[1]), float(r[2]), float(r[3])))
    assert set(by_init) == {0, 1}
    for init_id, recs in by_init.items():
        assert [r[0] for r in recs] == list(range(len(recs)))
        # every initialization converges below the tolerance
        assert recs[-1][2] <= cfg.fig4_eps
        # initial distance equals the configured perturbation
        assert recs[0][1] == pytest.approx(cfg.fig4_deltas[init_id], rel=1e-9)
        # quadratic tail once delta is small
        for (_, d0, _), (_, d1, _) in zip(recs, recs[1:]):
            if 1e-7 <= d0 <= 0.3:
                assert d1 <= 1.5 * d0 * d0 + 1e-7
        # both logged columns shrink monotonically after the first step
        for (_, d0, h0), (_, d1, h1) in zip(recs[1:], recs[2:]):
            assert d1 <= d0 + 1e-9
            if math.isfinite(h0):
                assert h1 <= h0 + 1e-9


def test_feasible_pair_file_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    cone = J.ConeDescriptor((J.Psd(3),))
    prob = random_basis_problem(cone, 2, rng)
    from geoipm import solver as V

    w, _ = V.center(prob, J.identity(cone), 1.0, 1e-8)
    pair = S.feasible_point(prob, w, 1.0)
    assert pair is not None
    x, s = pair
    path = tmp_path / "feas.json"
    io.write_feasible_pair(path, x, s, 1.0, S.duality_gap(x, s))
    x2, s2, mu, gap = io.read_feasible_pair(path, cone)
    rp, rd = S.affine_residuals(prob, x2, s2)
    assert rp <= 1e-8 and rd <= 1e-8
    assert J.min_eigenvalue(x2) >= -1e-10
    assert J.min_eigenvalue(s2) >= -1e-10
    assert gap == pytest.approx(S.duality_gap(x2, s2), rel=1e-12)


# each case edits the document of a good feasible-pair file into a defective file content
PAIR_DEFECTS = {
    "mu_not_a_number": lambda d: json.dumps({**d, "mu": "abc"}),
    "mu_missing": lambda d: json.dumps({k: v for k, v in d.items() if k != "mu"}),
    "gap_is_a_bool": lambda d: json.dumps({**d, "gap": True}),
    "gap_is_nan": lambda d: json.dumps({**d, "gap": math.nan}),
    "x_missing": lambda d: json.dumps({k: v for k, v in d.items() if k != "x"}),
    "s_not_numeric": lambda d: json.dumps({**d, "s": ["abc"] * len(d["s"])}),
    "x_too_short": lambda d: json.dumps({**d, "x": d["x"][:-1]}),
    "not_an_object": lambda d: json.dumps([d]),
    "invalid_json": lambda d: json.dumps(d)[:-2],
    "not_utf8": lambda d: b"\xff" + json.dumps(d).encode(),
}


@pytest.mark.parametrize("defect", PAIR_DEFECTS.values(), ids=PAIR_DEFECTS.keys())
def test_malformed_feasible_pair_file(tmp_path, defect):
    cone = J.ConeDescriptor((J.Psd(3),))
    e = J.identity(cone)
    path = tmp_path / "feas.json"
    io.write_feasible_pair(path, e, e, 1.0, 3.0)
    text = defect(json.loads(path.read_text()))
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ProblemFormatError):
        io.read_feasible_pair(path, cone)
    with pytest.raises(ProblemFormatError):
        io.read_feasible_pair(tmp_path / "missing.json", cone)
