"""Tests for configuration parsing, diagnostics, and model construction."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavetriple as wt
from wavetriple import cli
from wavetriple import config as cfgmod
from wavetriple.errors import ConfigError, DegenerateEnergyNormError
from wavetriple.mesh import cell_midpoints

MINIMAL = """\
[domain]
dim = 1
n = 8
left = fixed
right = fixed
"""

SQUARE = """\
[domain]
dim = 2
nx = 4
ny = 2
left = fixed
right = damped
bottom = fixed 0 0.5, free 0.5 1
top = elastic

[boundary]
k1 = 2
k2 = 1 + x
"""


def diagnostics_of(text):
    with pytest.raises(ConfigError) as err:
        wt.parse_config(text)
    return err.value.diagnostics


class TestExpressions:
    def test_arithmetic(self):
        expr = wt.compile_expression("2*(x + 1) - -3", 1)
        pts = np.array([[0.0], [0.5]])
        assert np.allclose(expr(pts), [5.0, 6.0])

    def test_division_and_power_free_grammar(self):
        expr = wt.compile_expression("x / 4 + 1/2", 1)
        assert expr(np.array([[2.0]]))[0] == pytest.approx(1.0)

    def test_second_coordinate(self):
        expr = wt.compile_expression("x * y", 2)
        assert expr(np.array([[3.0, 0.5]]))[0] == pytest.approx(1.5)

    def test_constant_broadcasts(self):
        expr = wt.compile_expression("3", 1)
        out = expr(np.zeros((4, 1)))
        assert out.shape == (4,)
        assert np.all(out == 3.0)

    def test_y_rejected_in_one_dimension(self):
        with pytest.raises(ValueError):
            wt.compile_expression("x + y", 1)

    def test_malformed_sources(self):
        for src in ("x +", "2 x", "(x", "x & 2", ""):
            with pytest.raises(ValueError):
                wt.compile_expression(src, 1)

    @pytest.mark.parametrize(
        "src, want",
        [
            ("1.", 1.0),
            (".5", 0.5),
            ("1E+5", 1e5),
            ("+x", 0.25),
            ("--x", 0.25),
            ("-+-x", 0.25),
            ("x\u00a0+\t1", 1.25),
            ("\u0663*x", 0.75),  # an Arabic-Indic 3, as float() reads it
        ],
    )
    def test_number_and_sign_forms_accepted(self, src, want):
        assert wt.compile_expression(src, 1)(np.array([[0.25]]))[0] == want

    @pytest.mark.parametrize(
        "src",
        [
            "0x1", "1_0", "1j", "x**2", "x//2", "abs(x)", "x[0]", "True", "01", "007",
            "x # 1", "\uff58",  # a comment; fullwidth x, which Python reads as x
        ],
    )
    def test_forms_outside_the_grammar_rejected(self, src):
        with pytest.raises(ValueError):
            wt.compile_expression(src, 1)

    def test_negation_keeps_the_sign_of_zero(self):
        assert np.signbit(wt.compile_expression("-x", 1)(np.zeros((1, 1)))[0])

    def test_constant_division_by_zero_is_nonfinite(self):
        pts = np.zeros((2, 1))
        assert np.all(wt.compile_expression("1/0", 1)(pts) == np.inf)
        assert np.all(np.isnan(wt.compile_expression("0/0", 1)(pts)))

    def test_unknown_name_lists_the_coordinates(self):
        with pytest.raises(ValueError, match="unknown name 'y'; allowed: x"):
            wt.compile_expression("x + y", 1)

    @pytest.mark.parametrize(
        "src", ["(" * 400 + "x" + ")" * 400, "-" * 3000 + "x", "+".join(["x"] * 3000)]
    )
    def test_deep_nesting_is_a_value_error(self, src):
        with pytest.raises(ValueError):
            wt.compile_expression(src, 1)

    def test_long_chain_evaluates_without_recursion(self):
        expr = wt.compile_expression("+".join(["x"] * 800), 1)

        def call_from_depth(depth):
            return expr(np.array([[0.5]])) if depth == 0 else call_from_depth(depth - 1)

        # 800 levels of tree on top of 300 frames would exceed the default
        # recursion limit of 1000 for a recursive evaluator.
        assert call_from_depth(300)[0] == 400.0

    def test_equality_is_by_source(self):
        assert wt.compile_expression("x + 1", 1) == wt.compile_expression("x + 1", 1)
        assert wt.compile_expression("x + 1", 1) != wt.compile_expression("1 + x", 1)


class TestParse:
    def test_minimal_defaults(self):
        cfg = wt.parse_config(MINIMAL)
        assert cfg.dim == 1
        assert cfg.n == 8
        fixed = (wt.Segment(wt.BoundaryLabel.FIXED),)
        assert (cfg.left, cfg.right) == (fixed, fixed)
        assert cfg.modulus == wt.compile_expression("1", 1)
        assert cfg.density == wt.compile_expression("1", 1)
        assert cfg.spring_default == wt.compile_expression("0", 1)
        assert cfg.damper_default == wt.compile_expression("0", 1)
        assert cfg.t_end is None
        assert cfg.helmholtz_field == ()
        assert cfg.output_dir == "out"

    def test_comments_and_blanks_ignored(self):
        text = MINIMAL.replace("n = 8", "n = 8  # eight cells\n\n# comment line")
        assert wt.parse_config(text) == wt.parse_config(MINIMAL)

    def test_square_partition(self):
        cfg = wt.parse_config(SQUARE)
        assert cfg.dim == 2
        assert (cfg.nx, cfg.ny) == (4, 2)
        label = wt.BoundaryLabel
        assert cfg.bottom == (wt.Segment(label.FIXED, 0, 0.5), wt.Segment(label.FREE, 0.5, 1))
        assert cfg.top == (wt.Segment(label.ELASTIC),)
        assert cfg.damper_default == wt.compile_expression("1 + x", 2)

    def test_diagnostics_carry_line_numbers(self):
        diags = diagnostics_of(MINIMAL + "tilt = 3\nleft = 2\n")
        assert any(d.startswith("line 6:") and "'tilt'" in d for d in diags)
        assert any(d.startswith("line 7:") and "duplicate key 'left'" in d for d in diags)

    def test_expression_error_names_key_and_line(self):
        diags = diagnostics_of(MINIMAL + "[coefficients]\nmodulus = x +\n")
        assert any(d.startswith("line 7:") and "'modulus'" in d for d in diags)

    def test_all_diagnostics_collected_before_raising(self):
        text = "[domain]\ndim = 1\nn = zero\nleft = fixed\nright = sticky\n"
        diags = diagnostics_of(text)
        assert len(diags) == 2

    @pytest.mark.parametrize(
        "text, want",
        [
            (
                SQUARE.replace("left = fixed", "left = ,"),
                "line 5: 'left': empty boundary assignment",
            ),
            (
                SQUARE.replace("left = fixed", "left = sticky"),
                "line 5: 'left': unknown boundary label 'sticky'",
            ),
            (
                SQUARE.replace("left = fixed", "left = fixed 0"),
                "line 5: 'left': expected 'label' or 'label t0 t1', got 'fixed 0'",
            ),
            (MINIMAL.replace("n = 8", "n = 0"), "line 3: 'n' must be at least 1, got 0"),
            (
                MINIMAL + "[simulation]\nt_end = 1\ndt = abc\n",
                "line 8: 'dt' must be a number, got 'abc'",
            ),
            (MINIMAL + "[domain\n", "line 6: malformed section header '[domain'"),
            (MINIMAL + "nonsense\n", "line 6: expected 'key = value', got 'nonsense'"),
            (MINIMAL.replace("dim = 1\n", ""), "line 1: missing key 'dim' in [domain]"),
            (SQUARE.replace("top = elastic\n", ""), "line 1: missing side 'top' in [domain]"),
        ],
        ids=[
            "empty-sides",
            "unknown-label",
            "bad-segment",
            "n-zero",
            "dt-not-a-number",
            "malformed-header",
            "no-equals",
            "missing-dim",
            "missing-side",
        ],
    )
    def test_each_malformed_value_is_one_diagnostic(self, text, want):
        assert diagnostics_of(text) == [want]

    def test_a_malformed_header_closes_the_section(self):
        # Its keys are outside any section, as after an unknown header,
        # not checked against the section before it.
        assert diagnostics_of(MINIMAL + "[coefficients\nmodulus = 2\n") == [
            "line 6: malformed section header '[coefficients'",
            "line 7: key outside any known section",
        ]

    def test_unknown_section(self):
        diags = diagnostics_of(MINIMAL + "[tuning]\ngain = 2\n")
        assert any("unknown section [tuning]" in d for d in diags)

    def test_duplicate_key_and_section(self):
        diags = diagnostics_of(MINIMAL + "n = 9\n[domain]\n")
        assert any("duplicate key 'n'" in d for d in diags)
        assert any("duplicate section [domain]" in d for d in diags)

    def test_key_before_any_section(self):
        diags = diagnostics_of("dim = 1\n" + MINIMAL)
        assert any("outside any known section" in d for d in diags)

    def test_missing_domain(self):
        diags = diagnostics_of("[coefficients]\nmodulus = 1\n")
        assert any("missing [domain]" in d for d in diags)

    def test_dim_must_be_one_or_two(self):
        diags = diagnostics_of(MINIMAL.replace("dim = 1", "dim = 3"))
        assert any("must be 1 or 2" in d for d in diags)

    def test_dimension_specific_keys(self):
        diags = diagnostics_of(MINIMAL + "nx = 4\n")
        assert any("'nx' is only valid when dim = 2" in d for d in diags)
        diags = diagnostics_of(SQUARE + "\n[domain2]\n".replace("domain2", "domain") + "n = 3\n")
        assert any("duplicate section" in d for d in diags)

    def test_n_rejected_in_two_dimensions(self):
        diags = diagnostics_of(SQUARE.replace("nx = 4", "nx = 4\nn = 4"))
        assert any("'n' is only valid when dim = 2".replace("2", "1") in d for d in diags)

    @pytest.mark.parametrize(
        "text, key, dim",
        [
            (MINIMAL + "nx = 4\n", "nx", 2),
            (MINIMAL + "ny = 4\n", "ny", 2),
            (MINIMAL + "bottom = free\n", "bottom", 2),
            (MINIMAL + "top = fixed 0 0.5, free 0.5 1\n", "top", 2),
            (MINIMAL + "[helmholtz]\nfx = x\n", "fx", 2),
            # The dropped key is not evaluated, so its bad expression adds nothing.
            (MINIMAL + "[helmholtz]\nfy = x +\n", "fy", 2),
            (SQUARE.replace("ny = 2\n", "ny = 2\nn = 3\n"), "n", 1),
            (SQUARE + "[helmholtz]\nf = x\n", "f", 1),
        ],
        ids=["nx", "ny", "bottom", "top", "fx", "fy", "n", "f"],
    )
    def test_wrong_dimension_key_is_one_diagnostic(self, text, key, dim):
        lineno = next(
            i for i, row in enumerate(text.splitlines(), start=1) if row.startswith(key + " =")
        )
        assert diagnostics_of(text) == [f"line {lineno}: {key!r} is only valid when dim = {dim}"]

    def test_label_without_spring_rejected(self):
        diags = diagnostics_of(MINIMAL + "[boundary]\nk1_damped = 1\n")
        assert any("does not take a spring" in d for d in diags)
        diags = diagnostics_of(MINIMAL + "[boundary]\nk2_free = 1\n")
        assert any("does not take a damper" in d for d in diags)

    def test_unknown_boundary_key(self):
        diags = diagnostics_of(MINIMAL + "[boundary]\nk3 = 1\n")
        assert any("unknown boundary key 'k3'" in d for d in diags)

    @pytest.mark.parametrize("key", ["k1_", "k2_"])
    def test_empty_label_suffix_rejected(self, key):
        assert diagnostics_of(MINIMAL + f"[boundary]\n{key} = 2\n") == [
            f"line 7: unknown boundary key {key!r}"
        ]

    def test_degenerate_energy_norm_flagged(self):
        # The rule lives in coefficients.energy_anchored, so the text parses
        # and model validation rejects the built model.
        text = MINIMAL.replace("left = fixed", "left = free").replace(
            "right = fixed", "right = free"
        )
        cfg = wt.parse_config(text)
        mesh = cfgmod.build_mesh(cfg)
        with pytest.raises(DegenerateEnergyNormError, match="degenerate energy norm"):
            wt.validate_model(mesh, cfgmod.build_coefficients(cfg, mesh))

    def test_spring_or_clamp_clears_degeneracy(self):
        free = MINIMAL.replace("left = fixed", "left = free").replace(
            "right = fixed", "right = elastic"
        )
        cfg = wt.parse_config(free + "[boundary]\nk1 = 2\n")
        assert cfg.spring_default == wt.compile_expression("2", 1)
        wt.parse_config(MINIMAL.replace("right = fixed", "right = free"))

    def test_helmholtz_section_by_dimension(self):
        cfg = wt.parse_config(MINIMAL + "[helmholtz]\nf = x\n")
        assert cfg.helmholtz_field == (wt.compile_expression("x", 1),)
        diags = diagnostics_of(SQUARE + "\n[helmholtz]\nfx = x\n")
        assert any("need both 'fx' and 'fy'" in d for d in diags)
        diags = diagnostics_of(SQUARE + "\n[helmholtz]\nf = x\n")
        assert any("'f' is only valid when dim = 1" in d for d in diags)


class TestBuilders:
    def test_build_interval_mesh(self):
        mesh = cfgmod.build_mesh(wt.parse_config(MINIMAL))
        assert mesh.dim == 1
        assert mesh.num_cells == 8
        assert [lab for lab in mesh.facet_labels] == [
            wt.BoundaryLabel.FIXED,
            wt.BoundaryLabel.FIXED,
        ]

    def test_build_square_mesh(self):
        mesh = cfgmod.build_mesh(wt.parse_config(SQUARE))
        assert mesh.dim == 2
        assert mesh.num_cells == 2 * 4 * 2
        wt.validate_mesh(mesh)

    def test_build_coefficients_samples_expressions(self):
        cfg = wt.parse_config(
            MINIMAL + "[coefficients]\nmodulus = 1 + x\n[boundary]\nk2_damped = 5\n"
        )
        cfg = cfgmod.resized(cfg, 4)
        mesh = cfgmod.build_mesh(cfg)
        coeffs = cfgmod.build_coefficients(cfg, mesh)
        mids = cell_midpoints(mesh)[:, 0]
        assert np.allclose(coeffs.modulus, 1.0 + mids)
        # No damped facet in this model, so the override never lands.
        assert np.all(coeffs.boundary_damping == 0.0)

    def test_per_label_damper_lands_on_its_facets(self):
        cfg = wt.parse_config(
            MINIMAL.replace("right = fixed", "right = damped")
            + "[boundary]\nk2 = 1\nk2_damped = 4\n"
        )
        mesh = cfgmod.build_mesh(cfg)
        coeffs = cfgmod.build_coefficients(cfg, mesh)
        assert coeffs.boundary_damping[0] == 0.0
        assert coeffs.boundary_damping[1] == 4.0

    def test_resized(self):
        cfg = wt.parse_config(MINIMAL)
        assert cfgmod.resized(cfg, 32).n == 32
        square = cfgmod.resized(wt.parse_config(SQUARE), 6)
        assert (square.nx, square.ny) == (6, 6)

    def test_helmholtz_field_defaults_to_coordinates(self):
        cfg = wt.parse_config(MINIMAL)
        mesh = cfgmod.build_mesh(cfg)
        field = cfgmod.helmholtz_field(cfg, mesh)
        assert field.shape == (8, 1)
        assert np.allclose(field[:, 0], cell_midpoints(mesh)[:, 0])

    def test_helmholtz_field_from_expressions(self):
        cfg = wt.parse_config(SQUARE + "\n[helmholtz]\nfx = y\nfy = 0 - x\n")
        mesh = cfgmod.build_mesh(cfg)
        field = cfgmod.helmholtz_field(cfg, mesh)
        mids = cell_midpoints(mesh)
        assert np.allclose(field[:, 0], mids[:, 1])
        assert np.allclose(field[:, 1], -mids[:, 0])


class TestParseOnce:
    @pytest.mark.parametrize(
        "text",
        [
            MINIMAL.replace("right = fixed", "right = elastic_damped")
            + "[coefficients]\nreaction = x\n[boundary]\nk1 = 2\nk2_elastic_damped = 1 + x\n"
            + "[simulation]\nt_end = 1\ndt = 0.5\nw0 = x*(1 - x)\nw1 = 0\n"
            + "[helmholtz]\nf = x*x\n",
            SQUARE + "[coefficients]\nmodulus = 1 + x*y\n[helmholtz]\nfx = y\nfy = 0 - x\n",
        ],
        ids=["1d", "2d"],
    )
    def test_config_holds_compiled_values_and_builders_compile_nothing(self, text, monkeypatch):
        cfg = wt.parse_config(text)
        for side in ("left", "right", "bottom", "top"):
            assert all(isinstance(seg, wt.Segment) for seg in getattr(cfg, side))
        expressions = [
            cfg.modulus,
            cfg.density,
            cfg.reaction,
            cfg.damping,
            cfg.spring_default,
            cfg.damper_default,
            *(expr for _, expr in cfg.spring_by_label + cfg.damper_by_label),
            *cfg.helmholtz_field,
            *(expr for expr in (cfg.w0, cfg.w1) if expr is not None),
        ]
        assert cfg.helmholtz_field
        assert all(isinstance(expr, cfgmod.Expression) for expr in expressions)

        def refuse(*args):
            raise AssertionError("parsed again after parse_config")

        monkeypatch.setattr(cfgmod, "_compile", refuse)
        monkeypatch.setattr(cfgmod, "_parse_partition_value", refuse)
        mesh = cfgmod.build_mesh(cfg)
        cfgmod.build_coefficients(cfg, mesh)
        assert np.all(np.isfinite(cfgmod.helmholtz_field(cfg, mesh)))

    @pytest.mark.parametrize("base", [MINIMAL, SQUARE], ids=["1d", "2d"])
    def test_explicit_default_equals_absent(self, base):
        explicit = wt.parse_config(base + "[coefficients]\nmodulus = 1\ndamping = 0\n")
        assert explicit == wt.parse_config(base)


# Bytes outside the config grammar: NUL, each byte that is not ASCII, a
# byte-order mark and a carriage return.  Several inserted at one position
# are adjacent, so they may also form a multi-byte UTF-8 character.
FOREIGN_BYTES = st.sampled_from([b"\x00", b"\xef\xbb\xbf", b"\r"]) | st.builds(
    lambda byte: bytes([byte]), st.integers(0x80, 0xFF)
)


class TestFrontDoorBytes:
    """validate on a config with foreign bytes exits 0 or prints only error lines."""

    @settings(deadline=None)
    @given(
        base=st.sampled_from([MINIMAL, SQUARE]),
        inserts=st.lists(st.tuples(st.integers(0, 10**4), FOREIGN_BYTES), max_size=8),
    )
    @example(base=MINIMAL, inserts=[(0, b"\xe9")])
    def test_never_a_traceback(self, tmp_path_factory, base, inserts):
        data = base.encode()
        # From the last position back, so each offset is one into the original text.
        for pos, chunk in sorted(((pos % (len(data) + 1), chunk) for pos, chunk in inserts))[::-1]:
            data = data[:pos] + chunk + data[pos:]
        path = tmp_path_factory.mktemp("bytes") / "model.cfg"
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["validate", "--config", str(path)])
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 1
            lines = err.getvalue().splitlines()
            assert lines and all(line.startswith("error: ") for line in lines)
