"""End-to-end tests for the command line interface."""

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from wavetriple import assembly, cli, config, helmholtz, spectral

DAMPED = """\
[domain]
dim = 1
n = 8
left = fixed
right = damped

[boundary]
k2 = 3
"""

UNDAMPED_RUN = """\
[domain]
dim = 1
n = 16
left = fixed
right = fixed

[simulation]
t_end = 0.5
dt = 0.05
w0 = x*(1 - x)
w1 = 0
"""


def write_config(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def spy_on_build(monkeypatch):
    """List that records each call the CLI makes to validate, sample or assemble."""
    calls = []
    for owner, name in (
        (cli, "validate_mesh"),
        (cli.cfgmod, "build_coefficients"),
        (cli, "assemble_pencil"),
    ):
        real = getattr(owner, name)

        def wrapper(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_reports_model_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        code, out, err = run(["validate", "--config", cfg], capsys)
        assert code == 0
        assert err == ""
        assert "model valid" in out
        assert "8 active" in out
        assert "damping present" in out

    def test_negative_damper_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED.replace("k2 = 3", "k2 = 0 - 1"))
        code, out, err = run(["validate", "--config", cfg], capsys)
        assert code == 1
        assert "error:" in err
        assert "negative" in err
        assert "boundary_damping" in err

    def test_degenerate_config_rejected(self, tmp_path, capsys):
        text = DAMPED.replace("left = fixed", "left = free").replace(
            "right = damped", "right = free"
        )
        cfg = write_config(tmp_path, text)
        code, _, err = run(["validate", "--config", cfg], capsys)
        assert code == 1
        assert "degenerate energy norm" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_break_point_is_an_error_line(self, tmp_path, capsys, bad):
        text = (
            "[domain]\ndim = 2\nnx = 2\nny = 2\nleft = fixed\nright = free\n"
            f"bottom = fixed 0 {bad}, free {bad} 1\ntop = free\n"
        )
        cfg = write_config(tmp_path, text)
        code, out, err = run(["validate", "--config", cfg], capsys)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: side 'bottom'")
        assert "Traceback" not in err

    def test_badly_scaled_spring_names_the_form_and_the_scale(self, tmp_path, capsys):
        text = DAMPED.replace("left = fixed", "left = free").replace(
            "right = damped", "right = elastic"
        ).replace("k2 = 3", "k1 = 1e308")
        code, out, err = run(["validate", "--config", write_config(tmp_path, text)], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            "error: displacement energy form (stiffness plus boundary spring) is not "
            "positive definite: pivot 8.000e+00 at row 0 is below 1.000e+294, which is "
            "PIVOT_RTOL = 1e-14 times the largest entry 1.000e+308\n"
        )

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(["validate", "--config", str(tmp_path / "absent.cfg")], capsys)
        assert code == 1
        assert "cannot read config" in err


class TestConfigBytes:
    """A config file is UTF-8 in any locale; its bytes never end in a traceback."""

    def test_byte_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "model.cfg"
        path.write_bytes(b"# caf\xe9\n" + DAMPED.encode())
        code, out, err = run(["validate", "--config", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: config {str(path)!r} is not UTF-8: invalid continuation byte at byte 5\n"
        )

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain = write_config(tmp_path, DAMPED, name="plain.cfg")
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + DAMPED.encode())
        assert cli._load(str(marked)) == cli._load(plain)

    def test_nul_in_output_dir_is_a_line_numbered_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, DAMPED + "\n[output]\ndir = out\x00x\n")
        code, out, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: line 11: 'dir' must not contain a NUL character\n"


class TestSpectrum:
    def test_writes_full_spectrum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        out_dir = tmp_path / "out"
        code, out, _ = run(
            ["spectrum", "--config", cfg, "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert "eigenvalues 16" in out
        lines = (out_dir / "eigenvalues.csv").read_text().splitlines()
        assert lines[0] == "index,re,im,residual,k2_trace_residual,flux_residual"
        assert len(lines) == 17
        assert "abscissa " in out
        assert "gap " in out

    def test_byte_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        for sub in ("a", "b"):
            code, _, _ = run(
                ["spectrum", "--config", cfg, "--out", str(tmp_path / sub)], capsys
            )
            assert code == 0
        first = (tmp_path / "a" / "eigenvalues.csv").read_bytes()
        second = (tmp_path / "b" / "eigenvalues.csv").read_bytes()
        assert first == second

    def test_default_out_dir_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, DAMPED + "\n[output]\ndir = results\n")
        code, _, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        assert (tmp_path / "results" / "eigenvalues.csv").exists()

    def test_size_beyond_dense_limit_refused_up_front(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED.replace("n = 8", "n = 2100"))
        out_dir = tmp_path / "spec"
        start = time.perf_counter()
        code, out, err = run(["spectrum", "--config", cfg, "--out", str(out_dir)], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert err.startswith("error: spectrum: state dimension 4200 exceeds 4096")
        assert out == ""
        assert not (out_dir / "eigenvalues.csv").exists()

    def test_size_beyond_dense_limit_is_neither_validated_nor_sampled(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = spy_on_build(monkeypatch)
        cfg = write_config(tmp_path, DAMPED.replace("n = 8", "n = 2100"))
        code, out, err = run(["spectrum", "--config", cfg, "--out", str(tmp_path / "s")], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            "error: spectrum: state dimension 4200 exceeds 4096, "
            "the largest this package attempts\n"
        )
        assert calls == []

    # There is no [spectral] section: the near-axis strip is a constant.
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_axis_tol_is_a_line_numbered_error(self, tmp_path, capsys, value):
        text = DAMPED + f"\n[spectral]\naxis_tol = {value}\n"
        lineno = len(text.splitlines())
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / "spec"
        code, out, err = run(["spectrum", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: line {lineno - 1}: unknown section [spectral]\n"
            f"error: line {lineno}: key outside any known section\n"
        )
        assert not (out_dir / "eigenvalues.csv").exists()

    @pytest.mark.parametrize(
        "interior",
        ["", "\n[coefficients]\ndamping = 1\nreaction = 1\n"],
        ids=["boundary-damping", "interior-terms"],
    )
    def test_stdout_ends_with_balance_line(self, tmp_path, capsys, interior):
        cfg = write_config(tmp_path, DAMPED + interior)
        code, out, err = run(["spectrum", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert code == 0 and err == ""
        key, value = out.splitlines()[-1].split(" ")
        assert key == "balance_worst_ratio"
        assert 0.0 <= float(value) <= 1.0

    def test_a_dgeev_failure_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # The square takes the dgeev route; LAPACK reporting info 3 there is
        # the eigensolver's refusal, not a traceback.
        def failing(a, **kwargs):
            n = a.shape[0]
            return np.zeros(n), np.zeros(n), None, np.zeros((n, n)), 3

        monkeypatch.setattr(scipy.linalg.lapack, "dgeev", failing)
        cfg = write_config(tmp_path, SQUARE)
        out_dir = tmp_path / "spec"
        code, out, err = run(["spectrum", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 1 and out == ""
        assert err == "error: eigenvalue iteration failed: LAPACK dgeev info 3\n"
        assert not (out_dir / "eigenvalues.csv").exists()

    def test_dissipation_forms_assembled_once(self, tmp_path, capsys, monkeypatch):
        real = spectral.dissipation_forms
        calls = []

        def counting(pencil):
            calls.append(pencil)
            return real(pencil)

        monkeypatch.setattr(spectral, "dissipation_forms", counting)
        cfg = write_config(tmp_path, DAMPED + "\n[coefficients]\ndamping = 1\nreaction = 1\n")
        code, _, err = run(["spectrum", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert code == 0, err
        assert len(calls) == 1


class TestSimulate:
    def test_undamped_energy_column_constant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNDAMPED_RUN)
        out_dir = tmp_path / "run"
        code, out, _ = run(
            ["simulate", "--config", cfg, "--out", str(out_dir)], capsys
        )
        assert code == 0
        assert "steps 10" in out
        lines = (out_dir / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,energy,xnorm"
        assert len(lines) == 12
        energy = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert energy.max() - energy.min() <= 1e-10 * energy[0]

    @pytest.mark.parametrize(
        "model",
        [
            "",
            "\n[boundary]\nk2 = 3\n\n[coefficients]\nreaction = 2\ndamping = 0 - 1\n",
        ],
        ids=["undamped", "reaction-and-negative-damping"],
    )
    def test_balance_line_follows_final_xnorm(self, tmp_path, capsys, model):
        right = "right = damped" if model else "right = fixed"
        cfg = write_config(tmp_path, UNDAMPED_RUN.replace("right = fixed", right) + model)
        code, out, err = run(["simulate", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert code == 0 and err == ""
        lines = out.splitlines()
        keys = [line.split(" ")[0] for line in lines]
        assert keys == ["wrote", "steps", "final_energy", "final_xnorm", "balance_worst_ratio"]
        key, value = lines[-1].split(" ")
        assert 0.0 <= float(value) <= 1.0
        energy_csv = (tmp_path / "energy.csv").read_text().splitlines()
        assert energy_csv[0] == "t,energy,xnorm" and len(energy_csv) == 12

    def test_missing_simulation_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        code, _, err = run(["simulate", "--config", cfg], capsys)
        assert code == 1
        assert "incomplete" in err
        assert "t_end" in err

    def test_horizon_must_be_whole_steps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, UNDAMPED_RUN.replace("dt = 0.05", "dt = 0.07"))
        code, _, err = run(["simulate", "--config", cfg], capsys)
        assert code == 1
        assert "whole number" in err


    @pytest.mark.parametrize(
        "initial, message",
        [
            ("w0 = 1 - x\nw1 = 1/x\n", "not finite"),
            ("w0 = 1\nw1 = 0\n", "vanish"),
        ],
        ids=["nonfinite-velocity", "clamped-displacement"],
    )
    def test_bad_initial_data_is_an_error_line(self, tmp_path, capsys, initial, message):
        text = UNDAMPED_RUN.replace("left = fixed", "left = elastic").replace(
            "w0 = x*(1 - x)\nw1 = 0\n", initial
        )
        cfg = write_config(tmp_path, text + "\n[boundary]\nk1 = 1\n")
        out_dir = tmp_path / "run"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err
        assert not (out_dir / "energy.csv").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "dt = 0",
            "dt = -0.01",
            "dt = nan",
            "dt = inf",
            "t_end = -1",
            "t_end = nan",
            "t_end = inf",
            "t_end = 1e400",
        ],
    )
    def test_bad_step_or_horizon_is_a_line_numbered_error(self, tmp_path, capsys, line):
        key = line.split(" =")[0]
        text = "\n".join(
            line if row.startswith(key + " =") else row for row in UNDAMPED_RUN.splitlines()
        )
        lineno = text.splitlines().index(line) + 1
        cfg = write_config(tmp_path, text + "\n")
        out_dir = tmp_path / "run"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 1
        assert err.startswith(f"error: line {lineno}: '{key}' must be a finite number")
        assert "Traceback" not in err
        assert not (out_dir / "energy.csv").exists()

    @pytest.mark.parametrize(
        "n, t_end, dt",
        [
            (4, "1e300", "1"),
            (4, "1e9", "1"),
            (1, "1e9", "1"),
            (4, "1", "1e-320"),
            (4, "1e308", "1e-10"),
        ],
        ids=[
            "beyond-array-limits",
            "beyond-memory",
            "fully-clamped",
            "step-count-overflows-tiny-dt",
            "step-count-overflows-huge-horizon",
        ],
    )
    def test_over_long_run_is_refused_up_front(self, tmp_path, capsys, n, t_end, dt):
        text = (
            UNDAMPED_RUN.replace("n = 16", f"n = {n}")
            .replace("t_end = 0.5", f"t_end = {t_end}")
            .replace("dt = 0.05", f"dt = {dt}")
        )
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        start = time.perf_counter()
        code, out, err = run(["simulate", "--config", cfg, "--out", str(out_dir)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error: ")
        assert "would record more than" in err
        assert "Traceback" not in err
        assert out == ""
        assert not (out_dir / "energy.csv").exists()


class TestDenseSizeGuard:
    @pytest.mark.parametrize("command", ["validate", "simulate", "poincare"])
    def test_oversized_model_refused_up_front(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, UNDAMPED_RUN.replace("n = 16", "n = 100000"))
        out_dir = tmp_path / "run"
        start = time.perf_counter()
        code, out, err = run([command, "--config", cfg, "--out", str(out_dir)], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.startswith("error: dense model: state dimension 199998 exceeds 8320")
        assert "Traceback" not in err
        assert not (out_dir / "energy.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "spectrum", "simulate", "poincare"])
    def test_oversized_model_is_neither_validated_nor_sampled(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # Each command names the limit of the layer it runs.
        label, limit = ("spectrum", 4096) if command == "spectrum" else ("dense model", 8320)
        calls = spy_on_build(monkeypatch)
        cfg = write_config(tmp_path, UNDAMPED_RUN.replace("n = 16", "n = 100000"))
        code, out, err = run([command, "--config", cfg, "--out", str(tmp_path / "run")], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {label}: state dimension 199998 exceeds {limit}, "
            "the largest this package attempts\n"
        )
        assert calls == []


REDUCED_NOT_FINITE = "error: the eigenproblem reduced to standard form is not finite"


class TestValuesTooLargeForFloat64:
    """Finite inputs whose arithmetic overflows end in one error line."""

    @pytest.mark.parametrize(
        "command, text, prefix",
        [
            ("spectrum", DAMPED.replace("k2 = 3", "k2 = 1e308"), REDUCED_NOT_FINITE),
            ("study", DAMPED.replace("k2 = 3", "k2 = 1e308"), REDUCED_NOT_FINITE),
            (
                "poincare",
                DAMPED.replace("damped", "elastic").replace("k2 = 3", "k1 = 1e308"),
                "error: displacement energy form (stiffness plus boundary spring) "
                "is not positive definite",
            ),
        ],
        ids=["spectrum", "study", "poincare"],
    )
    def test_huge_coefficient_is_an_error_line(self, tmp_path, capsys, command, text, prefix):
        out_dir = tmp_path / "run"
        args = [command, "--config", write_config(tmp_path, text), "--out", str(out_dir)]
        if command == "study":
            args += ["--sizes", "4,8"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1
        assert err.startswith(prefix)
        assert "Traceback" not in err
        assert caught == []
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text",
        [
            DAMPED + "\n[coefficients]\nmodulus = 1e200\n",
            DAMPED + "\n[coefficients]\ndensity = 1e-300\n",
            DAMPED.replace("k2 = 3", "k2 = 1e300"),
        ],
        ids=["modulus", "density", "k2"],
    )
    def test_overflowing_residual_is_one_error_line(self, tmp_path, capsys, text):
        out_dir = tmp_path / "run"
        args = ["spectrum", "--config", write_config(tmp_path, text), "--out", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: pencil residual inf exceeds {spectral.RESIDUAL_TOL:.1e}\n"
        assert caught == []
        assert not out_dir.exists()

    def test_huge_initial_data_is_an_error_line(self, tmp_path, capsys):
        text = UNDAMPED_RUN.replace("w0 = x*(1 - x)", "w0 = 1e200*x*(1-x)")
        out_dir = tmp_path / "run"
        args = ["simulate", "--config", write_config(tmp_path, text), "--out", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: initial energy inf")
        assert caught == []
        assert not (out_dir / "energy.csv").exists()


class TestBenchmarkHooks:
    """The benchmark's traced child wraps package names and reads pencil
    fields; a rename or a field without .nbytes must fail here first."""

    ROOT = Path(__file__).resolve().parents[1]

    @pytest.mark.parametrize(
        "command, text, facts",
        [
            ("simulate", UNDAMPED_RUN, ("pencil_bytes", "gram_nnz", "trajectory_bytes")),
            ("spectrum", DAMPED, ("pencil_bytes", "gram_nnz")),
        ],
        ids=["simulate", "spectrum"],
    )
    def test_traced_child_run(self, tmp_path, command, text, facts):
        cfg = write_config(tmp_path, text)
        record = tmp_path / "trace.json"
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"), OPENBLAS_NUM_THREADS="1")
        args = [str(record), command, "--config", cfg, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "child.py"), "trace", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        got = json.loads(record.read_text())["facts"]
        for key in facts:
            assert isinstance(got[key], int) and got[key] > 0, key


class TestExpressionErrors:
    def test_constant_division_by_zero_is_an_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED + "\n[coefficients]\nmodulus = 1/0\n")
        code, _, err = run(["validate", "--config", cfg], capsys)
        assert code == 1
        assert err == "error: modulus: non-finite sample\n"

    def test_deep_nesting_is_a_line_numbered_error(self, tmp_path, capsys):
        text = DAMPED + "\n[coefficients]\nmodulus = " + "(" * 400 + "x" + ")" * 400 + "\n"
        lineno = len(text.splitlines())
        code, _, err = run(["validate", "--config", write_config(tmp_path, text)], capsys)
        assert code == 1
        assert err.startswith(f"error: line {lineno}: 'modulus': ")
        assert "Traceback" not in err


class TestScalarCommands:
    def test_poincare_constant(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, UNDAMPED_RUN.split("[simulation]")[0].replace("n = 16", "n = 64")
        )
        code, out, _ = run(["poincare", "--config", cfg], capsys)
        assert code == 0
        value = float(out.split("poincare_constant ")[1])
        assert value == pytest.approx(1.0 / np.pi, rel=0.01)

    @pytest.mark.parametrize(
        "domain",
        [
            "dim = 1\nn = 1\nleft = fixed\nright = fixed\n",
            "dim = 2\nnx = 1\nny = 1\nleft = fixed\nright = fixed\nbottom = fixed\ntop = fixed\n",
        ],
        ids=["1d", "2d"],
    )
    def test_poincare_constant_without_active_node(self, tmp_path, capsys, domain):
        cfg = write_config(tmp_path, "[domain]\n" + domain)
        code, out, err = run(["poincare", "--config", cfg], capsys)
        assert code == 0 and err == ""
        assert out == "poincare_constant 0\n"

    def test_helmholtz_norms(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED + "\n[helmholtz]\nf = x\n")
        code, out, _ = run(["helmholtz", "--config", cfg], capsys)
        assert code == 0
        values = {}
        for line in out.splitlines():
            key, _, val = line.partition(" ")
            values[key] = float(val)
        assert values["divfree_norm_sq"] == pytest.approx(0.25, abs=1e-12)
        assert abs(values["pythagoras_defect"]) <= 1e-10 * values["field_norm_sq"]
        assert abs(values["orthogonality_defect"]) <= 1e-10 * values["field_norm_sq"]


SQUARE = """\
[domain]
dim = 2
nx = 4
ny = 4
left = fixed
right = damped
bottom = free
top = free

[boundary]
k2 = 1
"""


class TestHelmholtzErrors:
    def test_nonfinite_field_is_an_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SQUARE + "\n[helmholtz]\nfx = 1/(x - x)\nfy = y\n")
        with warnings.catch_warnings():
            # The division by zero is expected inside expression evaluation
            # and must not leak a warning.
            warnings.simplefilter("error")
            code, out, err = run(["helmholtz", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "not finite" in err
        assert "Traceback" not in err

    def test_overflowing_norm_is_an_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED + "\n[helmholtz]\nf = 1e200*x\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(["helmholtz", "--config", cfg], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: inner product inf is not finite")
        assert "Traceback" not in err
        assert caught == []

    def test_floating_point_error_state_left_alone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED + "\n[helmholtz]\nf = x\n")
        before = np.geterr()
        code, _, _ = run(["helmholtz", "--config", cfg], capsys)
        assert code == 0
        assert np.geterr() == before


class TestHelmholtzGeometry:
    def test_geometry_once_and_the_per_call_values(self, tmp_path, capsys, monkeypatch):
        # One command computes the cell volumes, the modulus tensors and
        # their inverses once, and prints what a fresh geometry per call
        # gives.
        text = SQUARE.replace("nx = 4", "nx = 7") + (
            "\n[coefficients]\nmodulus = 1 + 0.5*x\n\n[helmholtz]\nfx = x*y\nfy = x*x + y\n"
        )
        cfg = write_config(tmp_path, text)
        calls = {}
        for owner, name in (
            (helmholtz, "cell_volumes"),
            (assembly, "cell_volumes"),
            (helmholtz, "modulus_tensors"),
            (assembly, "modulus_tensors"),
            (np.linalg, "inv"),
        ):
            key = f"{owner.__name__}.{name}"
            calls[key] = 0

            def counting(*args, inner=getattr(owner, name), key=key):
                calls[key] += 1
                return inner(*args)

            monkeypatch.setattr(owner, name, counting)
        code, out, err = run(["helmholtz", "--config", cfg], capsys)
        assert code == 0 and err == ""
        assert calls == {
            "wavetriple.helmholtz.cell_volumes": 1,
            "wavetriple.assembly.cell_volumes": 0,
            "wavetriple.helmholtz.modulus_tensors": 1,
            "wavetriple.assembly.modulus_tensors": 0,
            "numpy.linalg.inv": 1,
        }
        monkeypatch.undo()
        model = config.parse_config(text)
        mesh = config.build_mesh(model)
        coeffs = config.build_coefficients(model, mesh)
        field = config.helmholtz_field(model, mesh)
        grad, div = helmholtz.decompose(helmholtz.CellGeometry(mesh, coeffs), field)
        total, grad_sq, div_sq, cross = (
            helmholtz.weighted_inner(helmholtz.CellGeometry(mesh, coeffs), f, g)
            for f, g in ((field, field), (grad, grad), (div, div), (grad, div))
        )
        assert out == (
            f"field_norm_sq {total:.17g}\n"
            f"gradient_norm_sq {grad_sq:.17g}\n"
            f"divfree_norm_sq {div_sq:.17g}\n"
            f"orthogonality_defect {cross:.17g}\n"
            f"pythagoras_defect {total - grad_sq - div_sq:.17g}\n"
        )


class TestStudy:
    def test_table_and_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        out_dir = tmp_path / "study"
        code, out, _ = run(
            ["study", "--config", cfg, "--out", str(out_dir), "--sizes", "4,8,16"],
            capsys,
        )
        assert code == 0
        lines = (out_dir / "study.csv").read_text().splitlines()
        assert lines[0] == "h,N,abscissa,gap"
        assert len(lines) == 4
        assert out.count("abscissa") == 3

    def test_bad_sizes_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        code, _, err = run(
            ["study", "--config", cfg, "--sizes", "4,eight"], capsys
        )
        assert code == 1
        assert "--sizes" in err

    def test_sizes_with_no_integer_are_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, DAMPED)
        out_dir = tmp_path / "run"
        code, out, err = run(
            ["study", "--config", cfg, "--out", str(out_dir), "--sizes", " , "], capsys
        )
        assert code == 1
        assert out == ""
        assert err == "error: --sizes is empty\n"
        assert not out_dir.exists()

    def test_size_beyond_dense_limit_refused_up_front(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SQUARE)
        out_dir = tmp_path / "study"
        start = time.perf_counter()
        code, out, err = run(
            ["study", "--config", cfg, "--out", str(out_dir), "--sizes", "4,200"], capsys
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert err.startswith("error: size 200: state dimension")
        assert "Traceback" not in err
        assert out == ""
        assert not (out_dir / "study.csv").exists()

    def test_every_size_is_checked_before_any_assembly(self, tmp_path, capsys, monkeypatch):
        calls = spy_on_build(monkeypatch)
        cfg = write_config(tmp_path, SQUARE)
        args = ["study", "--config", cfg, "--out", str(tmp_path / "study"), "--sizes", "4,200"]
        code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err == (
            "error: size 200: state dimension 80400 exceeds 4096, "
            "the largest this package attempts\n"
        )
        assert "assemble_pencil" not in calls


def oversized_cases(n, nx):
    """One case per command: a string of n cells or a square of nx by nx."""
    string = UNDAMPED_RUN.replace("n = 16", f"n = {n}")
    square = (
        SQUARE.replace("nx = 4\nny = 4", f"nx = {nx}\nny = {nx}")
        + "\n[helmholtz]\nfx = x\nfy = y\n"
    )
    return [
        ("validate", string, []),
        ("spectrum", string, []),
        ("simulate", string, []),
        ("helmholtz", square, []),
        ("poincare", square, []),
        ("validate", square, []),
        ("study", UNDAMPED_RUN, ["--sizes", f"4,{n}"]),
    ]


COMMAND_IDS = ["validate", "spectrum", "simulate", "helmholtz", "poincare", "validate-2d", "study"]


class TestOutOfMemory:
    # Each mesh needs one array larger than any user address space, so numpy
    # refuses it at once whatever the kernel's overcommit policy.
    @pytest.mark.parametrize(
        ("command", "text", "extra"), oversized_cases(10**15, 10**7), ids=COMMAND_IDS
    )
    def test_oversized_mesh_is_one_error_line(self, tmp_path, capsys, command, text, extra):
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        start = time.perf_counter()
        code, out, err = run([command, "--config", cfg, "--out", str(out_dir), *extra], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: out of memory: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()

    # Node arrays whose byte size exceeds the largest numpy index are refused
    # by interval_mesh and rectangle_mesh, before numpy sees them.
    @pytest.mark.parametrize(
        ("command", "text", "extra"),
        oversized_cases(2**60, 10**10) + oversized_cases(2**63 - 1, 10**20),
        ids=[f"{cmd}-{size}" for size in ("2^60", "2^63-1") for cmd in COMMAND_IDS],
    )
    def test_unaddressable_mesh_is_one_error_line(self, tmp_path, capsys, command, text, extra):
        cfg = write_config(tmp_path, text)
        out_dir = tmp_path / "run"
        code, out, err = run([command, "--config", cfg, "--out", str(out_dir), *extra], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "more than numpy can address" in err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()


class TestUnusableOutput:
    """An --out that cannot be a directory is one error line, after the work."""

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize(
        "command, text, extra",
        [
            ("spectrum", DAMPED, []),
            ("simulate", UNDAMPED_RUN, []),
            ("study", DAMPED, ["--sizes", "4,8"]),
        ],
        ids=["spectrum", "simulate", "study"],
    )
    def test_is_one_error_line(self, tmp_path, capsys, command, text, extra, below):
        cfg = write_config(tmp_path, text)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out_dir = blocker / "sub" if below else blocker
        code, out, err = run([command, "--config", cfg, "--out", str(out_dir), *extra], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write output: ")
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "Traceback" not in err
        assert blocker.read_text() == "kept\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["blocker", "model.cfg"]


class TestReadmeExample:
    """The example configuration in README.md runs under every command."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def example(self):
        text = self.README.read_text().split("### Example configuration", 1)[1]
        return text.split("```ini\n", 1)[1].split("```", 1)[0]

    @pytest.mark.parametrize(
        "command", ["validate", "spectrum", "simulate", "poincare", "helmholtz"]
    )
    def test_runs(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, self.example())
        code, out, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
        assert code == 0, err
        assert err == ""
        if command == "spectrum":
            assert out.splitlines()[-1].startswith("balance_worst_ratio ")
