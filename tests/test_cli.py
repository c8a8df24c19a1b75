"""Command line surface: golden outputs, exit codes, flag plumbing."""

import dataclasses
import json

import numpy as np
import pytest

from svmscreen import PathConfig, SolverOptions, data, screening, serialize_sparse_text
from svmscreen.cli import build_parser, main, penalty

from conftest import random_dataset, unsafe_screening

TWO_SAMPLE = "+1 1:2\n-1 2:1\n"
# labels (+1, +1, -1), both columns equal: threshold 2/3 with a tie
THREE_SAMPLE = "+1\n+1\n-1 1:0.5 2:0.5\n"


@pytest.fixture
def two_sample_file(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text(TWO_SAMPLE, encoding="utf-8")
    return str(path)


@pytest.fixture
def three_sample_file(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text(THREE_SAMPLE, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_penalty_notation():
    assert penalty("0.5") == (0.5, False)
    assert penalty("0.5xMAX") == (0.5, True)
    assert penalty("2xMAX") == (2.0, True)
    with pytest.raises(ValueError):
        penalty("half")


def test_lambda_max_golden(capsys, two_sample_file):
    code, out, err = run_cli(capsys, "lambda-max", two_sample_file)
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"lambda_max": 2.0, "bias": 0.0, "first_features": [1]}


def test_lambda_max_tie(capsys, three_sample_file):
    code, out, _ = run_cli(capsys, "lambda-max", three_sample_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max"] == pytest.approx(2.0 / 3.0)
    assert payload["bias"] == pytest.approx(1.0 / 3.0)
    assert payload["first_features"] == [1, 2]


def test_lambda_max_single_class(capsys, tmp_path):
    path = tmp_path / "pos.txt"
    path.write_text("+1 1:1\n+1 2:1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "lambda-max", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda_max"] == 0.0
    assert payload["first_features"] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["screen", "--lambda2", "0.5xMAX"],
        ["screen", "--lambda1", "0.5", "--lambda2", "0.9"],
        ["verify"],
        ["verify", "--lambda1", "0.5", "--lambda2", "0.3"],
        ["path"],
        ["path", "--grid-size", "0"],
    ],
    ids=["screen", "screen-absolute", "verify", "verify-absolute", "path", "path-bad-grid"],
)
def test_single_class_data_gets_one_refusal(capsys, tmp_path, argv):
    # lambda_max is 0: screen, verify and path refuse the data itself,
    # before any penalty, grid or theta1 is looked at.
    path = tmp_path / "pos.txt"
    path.write_text("+1 1:1\n+1 2:1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: lambda_max is zero for this dataset") and err.count("\n") == 1
    # solve still fits a model at a positive penalty.
    code, out, _ = run_cli(capsys, "solve", str(path), "--lambda", "0.5")
    assert code == 0 and json.loads(out)["weights"] == []


def test_lambda_max_output_file(capsys, two_sample_file, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "lambda-max", two_sample_file, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["lambda_max"] == 2.0


def test_solve_golden(capsys, two_sample_file):
    code, out, _ = run_cli(capsys, "solve", two_sample_file, "--lambda", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda"] == 1.0
    assert payload["converged"] is True
    assert payload["bias"] == pytest.approx(-0.5, abs=1e-8)
    assert payload["objective"] == pytest.approx(0.75, abs=1e-10)
    weights = dict((i, v) for i, v in payload["weights"])
    assert set(weights) == {1}
    assert weights[1] == pytest.approx(0.5, abs=1e-8)


def test_solve_above_threshold_empty_weights(capsys, two_sample_file):
    code, out, _ = run_cli(capsys, "solve", two_sample_file, "--lambda", "1.5xMAX")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == []
    assert payload["lambda"] == pytest.approx(3.0)


def test_screen_rejects_bad_penalty_order(capsys, two_sample_file):
    code, out, err = run_cli(
        capsys, "screen", two_sample_file, "--lambda1", "1.0", "--lambda2", "1.5"
    )
    assert code == 2
    assert err.strip() == "error: lambda2 must be < lambda1"
    code, _, err = run_cli(capsys, "screen", two_sample_file, "--lambda2", "1xMAX")
    assert code == 2
    assert "lambda2 must be < lambda1" in err


def test_screen_defaults_and_xmax(capsys, two_sample_file):
    code, out, _ = run_cli(capsys, "screen", two_sample_file, "--lambda2", "0.5xMAX")
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(2.0)  # defaults to lambda_max
    assert payload["lambda2"] == pytest.approx(1.0)
    assert set(payload["kept"]) <= {1, 2}
    assert 1 in payload["kept"]  # the entering feature survives
    assert len(payload["bounds"]) == 2
    assert sum(payload["branches"].values()) == 4


def test_screen_drops_constant_feature(capsys, tmp_path):
    path = tmp_path / "const.txt"
    path.write_text("+1 1:2 3:1\n-1 2:1 3:1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "screen", str(path), "--lambda2", "0.5xMAX")
    assert code == 0
    payload = json.loads(out)
    assert 3 not in payload["kept"]
    assert payload["bounds"][2] == 0.0


def test_screen_theta1_file(capsys, three_sample_file, tmp_path):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps([1.0, 1.0, 2.0]), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "screen",
        three_sample_file,
        "--lambda1",
        "1xMAX",
        "--lambda2",
        "0.5xMAX",
        "--theta1",
        str(theta),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kept"] == [1, 2]

    bad = tmp_path / "bad.json"
    contents = (
        [1.0, 2.0],
        {"theta": [1.0, 1.0, 2.0]},
        [{"a": 1.0}, 1.0, 2.0],
        "1 1 2",
        [True, True, True],
        [1.0, False, 2.0],
    )
    for content in contents:
        bad.write_text(json.dumps(content), encoding="utf-8")
        code, _, err = run_cli(
            capsys,
            "screen",
            three_sample_file,
            "--lambda2",
            "0.5xMAX",
            "--theta1",
            str(bad),
        )
        assert code == 2
        assert "one value per sample" in err


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_screen_rejects_a_nonfinite_theta1(capsys, three_sample_file, tmp_path, value):
    theta = tmp_path / "theta.json"
    theta.write_text(f"[{value}, 1.0, 2.0]", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "screen", three_sample_file, "--lambda2", "0.5xMAX", "--theta1", str(theta)
    )
    assert (code, out, err) == (2, "", "error: theta1 must be finite\n")


def test_screen_solves_for_interior_lambda1(capsys, tmp_path):
    rng = np.random.default_rng(7)
    lines = []
    for i in range(8):
        label = "+1" if i % 2 == 0 else "-1"
        feats = " ".join(f"{j + 1}:{rng.normal():.6f}" for j in range(5))
        lines.append(f"{label} {feats}")
    path = tmp_path / "rand.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "screen", str(path), "--lambda1", "0.7xMAX", "--lambda2", "0.5xMAX"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lambda1"] == pytest.approx(0.7 * payload["lambda2"] / 0.5)


def test_path_csv_and_json(capsys, tmp_path):
    rng = np.random.default_rng(11)
    lines = []
    for i in range(10):
        label = "+1" if rng.random() < 0.5 else "-1"
        feats = " ".join(f"{j + 1}:{rng.normal():.6f}" for j in range(20))
        lines.append(f"{label} {feats}")
    path = tmp_path / "rand.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    code, out, _ = run_cli(capsys, "path", str(path), "--grid-size", "4")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "lambda,kept,active,violations,screen_ms,solve_ms,objective"
    assert len(rows) == 5

    code, out, err = run_cli(
        capsys, "path", str(path), "--grid-size", "4", "--verify", "--format", "json"
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["verify"] is True
    assert all(step["violations"] == 0 for step in payload["steps"])
    assert all(
        step["discarded_corr"] is None or step["discarded_corr"] < 1.0
        for step in payload["steps"]
    )

    code, out, _ = run_cli(
        capsys, "path", str(path), "--grid-size", "4", "--no-screen", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(step["kept"] == 20 for step in payload["steps"])


def test_path_verify_exits_3_on_an_unsafe_discard(capsys, monkeypatch, tmp_path):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 10, 50, density=0.8)
    path = tmp_path / "data.txt"
    path.write_text(serialize_sparse_text(ds), encoding="utf-8")
    unsafe_screening(monkeypatch)
    code, out, err = run_cli(capsys, "path", str(path), "--grid-size", "6", "--verify")
    assert code == 3
    assert len(out.strip().split("\n")) == 7
    assert err.startswith("error: ") and "discarded features break" in err


def _sparse_file(tmp_path):
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 40, 60, density=0.2)
    path = tmp_path / "sparse.txt"
    path.write_text(serialize_sparse_text(ds), encoding="utf-8")
    return str(path)


def test_path_warns_of_unconverged_steps(capsys, tmp_path):
    sparse = _sparse_file(tmp_path)
    args = ("path", sparse, "--grid-size", "4", "--max-iter", "1")
    code, out, err = run_cli(capsys, *args)
    assert code == 0 and len(out.strip().split("\n")) == 5
    warning = err.strip()
    assert warning.startswith("warning: ") and warning.endswith("of 4 steps did not reach tolerance")
    assert "\n" not in warning and int(warning.split()[1]) > 0

    code, verified, err = run_cli(capsys, *args, "--verify")
    assert code == 0 and len(verified.strip().split("\n")) == 5
    assert err.strip() == f"{warning}; their discards were not checked"

    code, _, err = run_cli(capsys, "path", sparse, "--grid-size", "4", "--verify")
    assert (code, err) == (0, "")


def test_solve_warns_when_unconverged(capsys, tmp_path):
    sparse = _sparse_file(tmp_path)
    code, out, err = run_cli(capsys, "solve", sparse, "--lambda", "0.3xMAX", "--max-iter", "1")
    assert code == 0 and json.loads(out)["converged"] is False
    assert err.startswith("warning: solver did not reach tolerance")
    code, out, err = run_cli(capsys, "solve", sparse, "--lambda", "0.3xMAX")
    assert (code, err) == (0, "") and json.loads(out)["converged"] is True


def test_verify_three_sample(capsys, three_sample_file):
    code, out, _ = run_cli(capsys, "verify", three_sample_file)
    assert code == 0
    assert "overall max discrepancy" in out
    for line in out.strip().split("\n")[1:-1]:
        assert line.startswith("branch ")
        assert "max discrepancy" in line


def test_verify_checks_a_twelve_sample_file(capsys, tmp_path):
    rng = np.random.default_rng(13)
    lines = []
    for i in range(12):
        label = "+1" if i % 2 == 0 else "-1"
        lines.append(f"{label} 1:{rng.normal():.4f}")
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert out.strip().split("\n")[-1].endswith(" over 6 checks")
    assert "self-certification" not in out


def _patched_bounds(monkeypatch, change):
    """Make screen_all report ``change`` applied to a copy of its m1."""
    screen_all = screening.screen_all

    def patched(*args, **kwargs):
        report = screen_all(*args, **kwargs)
        m1 = report.m1.copy()
        change(m1)
        return dataclasses.replace(report, m1=m1)

    monkeypatch.setattr(screening, "screen_all", patched)


@pytest.mark.parametrize(
    "change",
    [lambda m1: m1.fill(np.nan), lambda m1: m1.__setitem__(0, m1[0] + 1e-3)],
    ids=["nan_bounds", "one_bound_off_by_1e-3"],
)
def test_verify_exits_3_on_a_wrong_bound(capsys, monkeypatch, three_sample_file, change):
    _patched_bounds(monkeypatch, change)
    code, out, _ = run_cli(capsys, "verify", three_sample_file)
    assert code == 3
    overall = out.strip().split("\n")[-1]
    assert overall.startswith("overall max discrepancy ")
    assert not float(overall.split()[3]) <= 1e-6


def test_index_beyond_physical_memory_exits_1(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(data, "_physical_memory", lambda: 1600)
    path = tmp_path / "wide.txt"
    path.write_text("+1 1:1\n-1 100:1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "lambda-max", str(path))
    assert code == 1
    assert err.startswith("error: line 2: index 100 needs")


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "lambda-max", "/nonexistent/data.txt")
    assert code == 1
    assert err.startswith("error:")


def test_malformed_data_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("+1 oops\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "lambda-max", str(path))
    assert code == 1
    assert "expected index:value" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("+1 1:nan\n", "line 1: feature values must be finite"),
        ("+1 1:1\n-1 1:1e999\n", "line 2: feature values must be finite"),
        ("+1 10000000000:1\n", "line 1: index 10000000000 exceeds"),
        ("+1 99999999999999999999:1\n", "line 1: index 99999999999999999999 exceeds"),
    ],
)
def test_bad_values_and_indices_are_parse_errors(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "lambda-max", str(path))
    assert code == 1
    assert err.startswith(f"error: {message}")


def test_bad_theta_json_is_io_error(capsys, three_sample_file, tmp_path):
    theta = tmp_path / "broken.json"
    theta.write_text("[1.0, 2.0,", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "screen", three_sample_file, "--lambda2", "0.5xMAX", "--theta1", str(theta)
    )
    assert code == 1
    assert err.startswith("error:")


def test_argparse_failures_exit_2(capsys, two_sample_file):
    code, _, _ = run_cli(capsys, "screen", two_sample_file)  # missing --lambda2
    assert code == 2
    code, _, _ = run_cli(capsys, "no-such-command", two_sample_file)
    assert code == 2
    code, _, _ = run_cli(capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--lambda", "nan"], "lam must be positive and finite"),
        (["solve", "--lambda", "inf"], "lam must be positive and finite"),
        (["solve", "--lambda", "infxMAX"], "lam must be positive and finite"),
        (["path", "--tol", "-1"], "tol must be positive and finite"),
        (["path", "--tol", "nan"], "tol must be positive and finite"),
        (["screen", "--lambda2", "nanxMAX"], "lambda1 and lambda2 must be finite"),
        (["verify", "--lambda2", "nan"], "lambda1 and lambda2 must be finite"),
    ],
)
def test_nonfinite_penalties_and_tolerances_exit_2(capsys, two_sample_file, argv, message):
    code, out, err = run_cli(capsys, argv[0], two_sample_file, *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_path_refuses_an_underflowing_grid(capsys, two_sample_file):
    argv = ("path", two_sample_file, "--grid-size", "1100", "--ratio", "0.5")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: path grid underflows: 1100 steps at ratio 0.5\n")


def test_negative_max_iter_exits_2(capsys, two_sample_file):
    for command in (["solve", "--lambda", "0.1"], ["path"]):
        code, out, err = run_cli(
            capsys, command[0], two_sample_file, *command[1:], "--max-iter", "-5"
        )
        assert (code, out, err) == (2, "", "error: max_iter must be non-negative\n")
    # 0 stays valid: it evaluates the starting point and warns.
    code, out, err = run_cli(capsys, "solve", two_sample_file, "--lambda", "0.1", "--max-iter", "0")
    assert code == 0 and json.loads(out)["iterations"] == 0
    assert "did not reach tolerance" in err


def test_parser_defaults_are_the_config_defaults():
    parser = build_parser()
    solve = parser.parse_args(["solve", "data.txt", "--lambda", "1"])
    path = parser.parse_args(["path", "data.txt"])
    for args in (solve, path):
        assert SolverOptions(tol=args.tol, max_iter=args.max_iter) == SolverOptions()
    config = PathConfig(
        grid_size=path.grid_size, ratio=path.ratio,
        solver=SolverOptions(tol=path.tol, max_iter=path.max_iter),
        verify=path.verify, screen=path.screen,
    )
    assert config == PathConfig()


def test_solver_flags_are_plumbed(capsys, two_sample_file):
    code, out, _ = run_cli(
        capsys, "solve", two_sample_file, "--lambda", "1", "--tol", "1e-6",
        "--max-iter", "50",
    )
    assert code == 0
    assert json.loads(out)["converged"] is True
