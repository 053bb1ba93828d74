"""End-to-end command-line tests: every invocation goes through main() in
process, checking exit codes, emitted files, and determinism."""

import csv

import numpy as np
import pytest

from wclogit.cli import CvGrid, ErrorRow, main, run_cv_grid
from wclogit.data import (
    SynthSpec,
    apply_center,
    center,
    gen_noisy,
    load_csv,
    train_test_split,
)
from wclogit.model import predict_many
from wclogit.modelfile import ModelFile, load_model, save_model
from wclogit.penalty import PenaltySpec
from wclogit.solver import SolverConfig, fit, fit_cells, max_constant_stepsize


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth(tmp_path):
    """Small noisy synthetic dataset written to disk."""
    prefix = tmp_path / "data"
    assert run("generate", "--d", 8, "--n-train", 60, "--k", 3, "--n-test", 30,
               "--noise-sigma", 0.4, "--seed", 5, "--out-prefix", prefix,
               "--quiet") == 0
    return {"train": f"{prefix}_train.csv", "test": f"{prefix}_test.csv",
            "theta0": f"{prefix}_theta0.txt"}


# --- generate ------------------------------------------------------------------


def test_generate_writes_loadable_files(synth):
    train = load_csv(synth["train"])
    test = load_csv(synth["test"])
    assert train.features.shape == (60, 8)
    assert test.features.shape == (30, 8)
    theta0 = np.loadtxt(synth["theta0"])
    assert theta0.shape == (8,)
    assert np.count_nonzero(theta0) == 3


def test_generate_deterministic(tmp_path):
    args = ["generate", "--d", 5, "--n-train", 20, "--k", 2, "--n-test", 10,
            "--seed", 9, "--quiet", "--out-prefix"]
    assert run(*args, tmp_path / "a") == 0
    assert run(*args, tmp_path / "b") == 0
    for part in ("train.csv", "test.csv", "theta0.txt"):
        assert (tmp_path / f"a_{part}").read_bytes() == (tmp_path / f"b_{part}").read_bytes()


def test_generate_rejects_bad_spec(tmp_path, capsys):
    assert run("generate", "--d", 3, "--n-train", 10, "--k", 7,
               "--out-prefix", tmp_path / "x") == 1
    assert "k must lie in" in capsys.readouterr().err


# --- train --------------------------------------------------------------------


def test_train_writes_model_and_trace(synth, tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    trace_path = tmp_path / "t.csv"
    code = run("train", synth["train"], "--beta", 0.3, "--zeta", 0.5, "--center",
               "--eps-tol", "1e-10", "--out", model_path, "--trace-out", trace_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "final objective" in out and "model written" in out

    model = load_model(model_path)
    assert model.beta == 0.3 and model.zeta == 0.5
    assert model.centered and not model.has_intercept
    assert model.theta.size == 8

    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["objective"]
    objectives = [float(r["objective"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
    assert len(rows) == model.iterations + 1


def test_train_deterministic_output(synth, tmp_path):
    for name in ("m1.txt", "m2.txt"):
        assert run("train", synth["train"], "--beta", 0.3, "--zeta", 0.5,
                   "--center", "--init", "small-random", "--seed", 3,
                   "--out", tmp_path / name, "--quiet") == 0
    assert (tmp_path / "m1.txt").read_bytes() == (tmp_path / "m2.txt").read_bytes()


def test_train_trace_out_changes_no_other_output(synth, tmp_path, capsys):
    # the trace is recorded only when written; the fit is the same either way
    outputs = []
    for extra in ([], ["--trace-out", tmp_path / "t.csv"]):
        assert run("train", synth["train"], "--beta", 0.3, "--zeta", 0.5, "--center",
                   "--backtracking", "--out", tmp_path / "m.txt", *extra) == 0
        stdout = capsys.readouterr().out
        outputs.append(((tmp_path / "m.txt").read_bytes(), stdout))
    assert outputs[0] == outputs[1]
    assert (tmp_path / "t.csv").exists()


def test_train_rejects_inadmissible_alpha(synth, tmp_path, capsys):
    code = run("train", synth["train"], "--beta", 0.3, "--zeta", 0.5,
               "--alpha", 50, "--out", tmp_path / "m.txt")
    assert code == 1
    err = capsys.readouterr().err
    assert "not admissible" in err and "(0, " in err  # message carries the bound


def test_train_threshold_warning_and_zero_stall(synth, tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    code = run("train", synth["train"], "--beta", 100, "--zeta", 0.1, "--center",
               "--out", model_path, "--quiet")
    assert code == 0
    assert "exceeds the zero-solution threshold" in capsys.readouterr().err
    model = load_model(model_path)
    assert np.array_equal(model.theta, np.zeros(8))
    assert model.converged and model.iterations == 1


def test_train_no_warning_below_threshold(synth, tmp_path, capsys):
    assert run("train", synth["train"], "--beta", 0.01, "--zeta", 0.1, "--center",
               "--out", tmp_path / "m.txt", "--quiet") == 0
    assert "threshold" not in capsys.readouterr().err


def test_train_backtracking_and_accelerate(synth, tmp_path):
    assert run("train", synth["train"], "--beta", 0.3, "--zeta", 0.5, "--center",
               "--backtracking", "--eta", 0.7, "--accelerate",
               "--out", tmp_path / "m.txt", "--quiet") == 0
    model = load_model(tmp_path / "m.txt")
    assert model.stepsize_rule == "backtracking"
    assert model.accelerate


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_train_numerical_failure_exit_code(synth, tmp_path, capsys):
    code = run("train", synth["train"], "--beta", 0.3, "--zeta", 0,
               "--backtracking", "--alpha0", "1e300", "--out", tmp_path / "m.txt")
    assert code == 3
    assert "backtracking" in capsys.readouterr().err


def test_train_missing_file_exit_code(tmp_path, capsys):
    assert run("train", tmp_path / "nope.csv", "--beta", 1) == 2
    assert "error:" in capsys.readouterr().err


def test_train_sparse_and_pm1_labels(tmp_path):
    sparse = tmp_path / "s.txt"
    sparse.write_text("+1 1:2.0 3:1.0\n-1 2:1.5\n+1 1:0.5\n-1 3:-2.0\n")
    assert run("train", sparse, "--sparse-format", "--pm1-labels", "--beta", 0.1,
               "--out", tmp_path / "m.txt", "--quiet") == 0
    model = load_model(tmp_path / "m.txt")
    assert model.theta.size == 3


def test_usage_errors_and_help():
    assert run() == 1
    assert run("train") == 1  # missing data path and --beta
    assert run("frobnicate") == 1
    assert run("--help") == 0


def test_successive_calls_share_no_flag_values(synth, tmp_path):
    # main() reuses one parser; a flag given to one call must not carry over
    train = ["train", synth["train"], "--beta", 0.3, "--quiet", "--out"]
    assert run(*train, tmp_path / "a.txt") == 0
    assert run(*train, tmp_path / "b.txt", "--center", "--add-intercept") == 0
    assert run("train", "--help") == 0
    assert run(*train) == 1  # --out without its value
    assert run(*train, tmp_path / "c.txt") == 0
    centered, last = (load_model(tmp_path / f"{n}.txt") for n in "bc")
    assert centered.centered and centered.has_intercept
    assert not last.centered and not last.has_intercept
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "c.txt").read_bytes()


# --- predict -------------------------------------------------------------------


def trained_model(synth, tmp_path, **overrides):
    path = tmp_path / "model.txt"
    argv = ["train", synth["train"], "--beta", overrides.pop("beta", 0.1),
            "--zeta", overrides.pop("zeta", 0.5), "--center",
            "--out", path, "--quiet"]
    assert run(*argv) == 0
    return path


def test_predict_reports_error_rate(synth, tmp_path, capsys):
    model_path = trained_model(synth, tmp_path)
    pred_path = tmp_path / "pred.csv"
    assert run("predict", model_path, synth["test"], "--out", pred_path,
               "--quiet") == 0
    out = capsys.readouterr().out
    assert "error rate:" in out and "misclassified" in out

    with open(pred_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert {r["label"] for r in rows} <= {"0", "1"}
    # the CSV reproduces the in-process predictions exactly
    model = load_model(model_path)
    test = load_csv(synth["test"])
    shifted = test.features - model.center
    labels, probs = predict_many(model.theta, shifted)
    for row, lbl, p in zip(rows, labels, probs):
        assert int(row["label"]) == lbl
        assert float(row["prob"]) == p


def test_predict_zero_model_predicts_ones_at_half(synth, tmp_path):
    model_path = tmp_path / "zero.txt"
    save_model(model_path, ModelFile(
        theta=np.zeros(8), beta=1.0, zeta=0.1, kind="mcp", centered=False,
        center=np.zeros(8), has_intercept=False, stepsize_rule="constant",
        accelerate=False, iterations=0, converged=True, final_objective=0.0))
    pred_path = tmp_path / "pred.csv"
    assert run("predict", model_path, synth["test"], "--out", pred_path,
               "--quiet") == 0
    with open(pred_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["label"] == "1" for r in rows)
    assert all(float(r["prob"]) == 0.5 for r in rows)


def test_predict_dimension_mismatch(synth, tmp_path, capsys):
    model_path = tmp_path / "m.txt"
    save_model(model_path, ModelFile(
        theta=np.zeros(5), beta=1.0, zeta=0.0, kind="mcp", centered=False,
        center=np.zeros(5), has_intercept=False, stepsize_rule="constant",
        accelerate=False, iterations=0, converged=True, final_objective=0.0))
    assert run("predict", model_path, synth["test"], "--out", tmp_path / "p.csv") == 2
    assert "features" in capsys.readouterr().err


def test_predict_unlabeled_csv(synth, tmp_path, capsys):
    model_path = trained_model(synth, tmp_path)
    test = load_csv(synth["test"])
    unlabeled = tmp_path / "unlabeled.csv"
    with open(unlabeled, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(1, 9)])
        for row in test.features:
            writer.writerow([repr(float(v)) for v in row])
    pred_path = tmp_path / "pred.csv"
    assert run("predict", model_path, unlabeled, "--no-labels",
               "--out", pred_path, "--quiet") == 0
    assert "error rate" not in capsys.readouterr().out
    with open(pred_path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 30


# --- model-file validation -------------------------------------------------------


def edited_model(synth, tmp_path, key, value):
    """A trained model file with the line for ``key`` replaced."""
    path = trained_model(synth, tmp_path)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
    lines[index] = f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    return path


def predict_exit_code(synth, tmp_path, model_path, capsys):
    code = run("predict", model_path, synth["test"], "--out", tmp_path / "p.csv")
    return code, capsys.readouterr().err


def test_model_file_corrupt_header_is_a_data_error(synth, tmp_path, capsys):
    path = edited_model(synth, tmp_path, "wclogit-model", "x")
    code, err = predict_exit_code(synth, tmp_path, path, capsys)
    assert code == 2 and "version" in err


@pytest.mark.parametrize("key", ["theta", "center", "beta", "zeta", "final_objective"])
def test_model_file_rejects_non_finite_numbers(synth, tmp_path, capsys, key):
    value = "nan " + "0.0 " * 7 if key in ("theta", "center") else "inf"
    path = edited_model(synth, tmp_path, key, value.strip())
    code, err = predict_exit_code(synth, tmp_path, path, capsys)
    assert code == 2 and key in err and "finite" in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("key", ["kind", "stepsize_rule"])
def test_model_file_rejects_unknown_choices(synth, tmp_path, capsys, key):
    path = edited_model(synth, tmp_path, key, "fancy")
    code, err = predict_exit_code(synth, tmp_path, path, capsys)
    assert code == 2 and key in err and "fancy" in err


# --- certify ----------------------------------------------------------------------


def test_certify_full_report(synth, tmp_path, capsys):
    model_path = trained_model(synth, tmp_path, beta=0.05)
    assert run("certify", model_path, synth["train"]) == 0
    out = capsys.readouterr().out
    assert "per-coordinate cases:" in out
    assert "zero-solution beta threshold:" in out
    assert "critical point:" in out
    assert "zero-vector status: not a critical point" in out


def test_certify_indeterminate_at_exact_threshold(tmp_path, capsys):
    data_path = tmp_path / "hand.csv"
    data_path.write_text("label,f1,f2\n1,2.0,-1.0\n0,-2.0,1.0\n")
    model_path = tmp_path / "m.txt"
    # threshold for this data is exactly 2; train at beta = 2 from zeros
    assert run("train", data_path, "--beta", 2, "--zeta", 0.1, "--center",
               "--out", model_path, "--quiet") == 0
    assert run("certify", model_path, data_path) == 0
    assert "zero-vector status: indeterminate" in capsys.readouterr().out


def test_certify_threshold_only_and_uncentered_error(synth, tmp_path, capsys):
    model_path = trained_model(synth, tmp_path)
    assert run("certify", model_path, synth["train"], "--threshold-only") == 0
    assert "beta threshold:" in capsys.readouterr().out

    uncentered = tmp_path / "u.txt"
    model = load_model(model_path)
    model.centered = False
    save_model(uncentered, model)
    assert run("certify", uncentered, synth["train"], "--threshold-only") == 1
    assert "centered" in capsys.readouterr().err


# --- cv --------------------------------------------------------------------------


def test_cv_single_cell_matches_manual_train_predict(synth, tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    assert run("cv", "--data", synth["train"], "--betas", "0.2", "--zetas", "0.5",
               "--repeats", 2, "--seed", 4, "--test-fraction", 0.3,
               "--max-iters", 400, "--out", grid_path) == 0
    assert "best zeta>0" in capsys.readouterr().out
    with open(grid_path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]

    full = load_csv(synth["train"])
    spec = PenaltySpec(zeta=0.5, beta=0.2)
    errors = []
    for r in range(2):
        train, test = train_test_split(full, 0.3, seed=4 + r)
        result = fit(train, 0.2, spec,
                     SolverConfig(eps_tol=1e-9, max_iters=400, record_trace=False))
        labels, _ = predict_many(result.theta, test.features)
        errors.append(np.mean(labels != test.labels))
    assert float(row["mean_test_error"]) == np.mean(errors)
    assert float(row["std_error"]) == np.std(errors)


def test_cv_grid_shape_and_determinism(synth, tmp_path):
    args = ["cv", "--data", synth["train"], "--betas", "0.05,0.2",
            "--zetas", "0,0.5", "--repeats", 2, "--seed", 1,
            "--max-iters", 200, "--quiet", "--out"]
    assert run(*args, tmp_path / "g1.csv") == 0
    assert run(*args, tmp_path / "g2.csv") == 0
    assert (tmp_path / "g1.csv").read_bytes() == (tmp_path / "g2.csv").read_bytes()
    with open(tmp_path / "g1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["beta"], r["zeta"]) for r in rows] == [
        ("0.05", "0.0"), ("0.05", "0.5"), ("0.2", "0.0"), ("0.2", "0.5")]
    assert all(0.0 <= float(r["mean_test_error"]) <= 1.0 for r in rows)


def test_cv_grid_equals_per_cell_fits():
    """The stacked grid solver gives what one fit per cell gives: the same
    stall iterations and scores, iterates equal up to rounding."""
    cells = [(b, z) for b in (0.01, 0.1, 1.0, 5.0) for z in (0.0, 0.1, 1.0)]
    grid = CvGrid(betas=(0.01, 0.1, 1.0, 5.0), zetas=(0.0, 0.1, 1.0), repeats=3)
    pairs = []
    for r in range(grid.repeats):
        train, test, _ = gen_noisy(SynthSpec(d=10, n_train=80, k=3, n_test=100,
                                             amplitude="normal", noise_sigma=0.2,
                                             seed=r))
        train = center(train)
        pairs.append((train, apply_center(test, train.center)))
    # admissible for some cells only, so the stack mixes explicit and default
    # stepsizes
    alpha = 0.99 * min(max_constant_stepsize(1.0, PenaltySpec(zeta=0.0), train)
                       for train, _ in pairs)

    errors, iterations, converged = (np.empty((len(cells), 3)) for _ in range(3))
    for r, (train, test) in enumerate(pairs):
        specs = [PenaltySpec(zeta=z, beta=b) for b, z in cells]
        alphas = [alpha if alpha < max_constant_stepsize(s.beta, s, train) else None
                  for s in specs]
        assert alpha in alphas and None in alphas
        stacked = fit_cells(train, cells, alphas, eps_tol=1e-9, max_iters=300)
        for c, (spec, a) in enumerate(zip(specs, alphas)):
            result = fit(train, spec.beta, spec, SolverConfig(
                alpha=a, eps_tol=1e-9, max_iters=300, record_trace=False))
            np.testing.assert_allclose(stacked.theta[c], result.theta, rtol=1e-12)
            labels, _ = predict_many(result.theta, test.features)
            errors[c, r] = np.mean(labels != test.labels)
            iterations[c, r] = result.iterations
            converged[c, r] = result.converged
        assert np.array_equal(stacked.iterations, iterations[:, r])
        assert np.array_equal(stacked.converged, converged[:, r])
    stalls = iterations[converged == 1.0]
    assert len(set(stalls)) > 2 and (converged == 0.0).any()

    rows = run_cv_grid(grid, lambda r: pairs[r], alpha=alpha, eps_tol=1e-9,
                       max_iters=300).rows
    assert rows == [ErrorRow(b, z, float(errors[c].mean()), float(errors[c].std()),
                             float(iterations[c].mean()), float(converged[c].mean()))
                    for c, (b, z) in enumerate(cells)]


def test_cv_synthetic_source_and_alpha_correction(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    assert run("cv", "--d", 10, "--n-train", 50, "--k", 2, "--n-test", 100,
               "--betas", "0.1", "--zetas", "0,0.2", "--repeats", 2, "--seed", 3,
               "--alpha", 1000, "--max-iters", 200, "--out", grid_path) == 0
    captured = capsys.readouterr()
    assert "notice:" in captured.err and "using the default" in captured.err
    with open(grid_path, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_cv_reports_convergence_per_cell(tmp_path, capsys):
    args = ["cv", "--d", 10, "--n-train", 80, "--k", 3, "--n-test", 100,
            "--noise-sigma", 0.2, "--betas", "0.01,5", "--zetas", "0,0.1",
            "--repeats", 3, "--eps-tol", 1e-9, "--out", tmp_path / "grid.csv"]
    assert run(*args, "--max-iters", 300) == 0
    err = capsys.readouterr().err
    with open(tmp_path / "grid.csv", newline="") as fh:
        header = next(csv.reader(fh))
        fh.seek(0)
        rows = list(csv.DictReader(fh))
    assert header[-1] == "converged_fraction"
    fractions = [float(r["converged_fraction"]) for r in rows]
    # the beta = 0.01 cells run to the cap, the beta = 5 cells stall early
    assert fractions == [0.0, 0.0, 1.0, 1.0]
    assert err.count("notice:") == 1
    assert "2 of 4 grid cells never converged within max_iters=300" in err

    assert run(*args, "--max-iters", 300, "--betas", "5") == 0
    assert "notice:" not in capsys.readouterr().err
    assert run(*args, "--max-iters", 300, "--quiet") == 0
    assert capsys.readouterr().err == ""


def test_cv_validation_split(synth, tmp_path, capsys):
    assert run("cv", "--data", synth["train"], "--betas", "0.1", "--zetas", "0,0.5",
               "--repeats", 2, "--test-fraction", 0.25, "--validation-fraction", 0.25,
               "--max-iters", 200, "--out", tmp_path / "g.csv") == 0
    assert "validation error" in capsys.readouterr().out
    assert run("cv", "--d", 5, "--n-train", 20, "--k", 1,
               "--validation-fraction", 0.2, "--out", tmp_path / "h.csv") == 1


def test_cv_usage_errors(synth, tmp_path, capsys):
    assert run("cv", "--data", synth["train"], "--betas", "",
               "--out", tmp_path / "g.csv") == 1
    assert run("cv", "--betas", "0.1", "--zetas", "0",
               "--out", tmp_path / "g.csv") == 1  # no data source
    err = capsys.readouterr().err
    assert "--data" in err


# --- reproduce ------------------------------------------------------------------


def test_reproduce_convergence_preset(tmp_path, capsys):
    assert run("reproduce", "fig1", "--out-dir", tmp_path, "--max-iters", 40) == 0
    out = capsys.readouterr().out
    assert "admissible constant stepsizes" in out
    finals = {}
    for alpha in ("1", "2", "4"):
        with open(tmp_path / f"fig1_alpha{alpha}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        objectives = [float(r["objective"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
        finals[alpha] = objectives[-1]
    # larger admissible stepsizes descend faster on this problem
    assert finals["4"] < finals["2"] < finals["1"]
    with open(tmp_path / "fig1_theta.csv", newline="") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["index", "ground_truth", "alpha1", "alpha2", "alpha4", "l1"]


def test_reproduce_accelerated_preset_beats_plain(tmp_path):
    assert run("reproduce", "fig1", "--out-dir", tmp_path, "--max-iters", 80,
               "--quiet") == 0
    assert run("reproduce", "fig2", "--out-dir", tmp_path, "--max-iters", 80,
               "--quiet") == 0
    for alpha in ("1", "2", "4"):
        with open(tmp_path / f"fig1_alpha{alpha}.csv", newline="") as fh:
            plain = float(list(csv.DictReader(fh))[-1]["objective"])
        with open(tmp_path / f"fig2_alpha{alpha}.csv", newline="") as fh:
            accelerated = float(list(csv.DictReader(fh))[-1]["objective"])
        assert accelerated < plain


def test_reproduce_deterministic(tmp_path):
    assert run("reproduce", "fig1", "--out-dir", tmp_path / "a", "--max-iters", 20,
               "--quiet") == 0
    assert run("reproduce", "fig1", "--out-dir", tmp_path / "b", "--max-iters", 20,
               "--quiet") == 0
    for name in ("fig1_alpha4.csv", "fig1_theta.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_reproduce_error_grid_preset(tmp_path, capsys):
    assert run("reproduce", "fig3", "--out-dir", tmp_path, "--max-iters", 60,
               "--repeats", 1) == 0
    captured = capsys.readouterr()
    assert "best zeta=0 baseline" in captured.out
    assert "notice:" in captured.err  # the preset stepsize needs correction
    assert "grid cells never converged within max_iters=60" in captured.err
    with open(tmp_path / "fig3_grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7 * 4
    assert all(0.0 <= float(r["converged_fraction"]) <= 1.0 for r in rows)


def test_reproduce_noise_table_preset(tmp_path):
    assert run("reproduce", "table3", "--out-dir", tmp_path, "--max-iters", 40,
               "--repeats", 1, "--quiet") == 0
    with open(tmp_path / "table3.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["noise_level"] for r in rows] == ["0.01", "0.03", "0.05", "0.1", "0.3", "0.5"]
    for r in rows:
        assert 0.0 <= float(r["l1_error"]) <= 1.0
        assert 0.0 <= float(r["weakly_convex_error"]) <= 1.0
