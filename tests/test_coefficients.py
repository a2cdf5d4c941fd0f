"""Tests for coefficient sampling and model validation."""

import dataclasses

import numpy as np
import pytest

import models
import wavetriple as wt
from wavetriple import coefficients
from wavetriple.mesh import BoundaryLabel as BL

FIELDS = [field.name for field in dataclasses.fields(wt.CoefficientSet)]


def damped_interval(n=4):
    return wt.interval_mesh(n, right=BL.DAMPED)


class TestSampling:
    def test_midpoint_samples_of_affine_field(self):
        mesh = wt.interval_mesh(4)
        coeffs = wt.sample_coefficients(mesh, modulus=lambda p: 1.0 + p[:, 0])
        assert np.allclose(coeffs.modulus, [1.125, 1.375, 1.625, 1.875], atol=1e-15)

    def test_constant_broadcast(self):
        mesh = wt.interval_mesh(3)
        coeffs = wt.sample_coefficients(mesh, density=2.0)
        assert np.array_equal(coeffs.density, [2.0, 2.0, 2.0])

    def test_negative_damper_on_applicable_facet_rejected(self):
        with pytest.raises(wt.CoefficientError, match="negative"):
            wt.sample_coefficients(damped_interval(), boundary_damping=-1.0)

    def test_inapplicable_facets_masked_to_zero(self):
        # The left end is fixed, so a damper value there is discarded, and
        # even a negative sample on it is never seen.
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(
            mesh, boundary_damping=lambda p: np.where(p[:, 0] < 0.5, -9.0, 3.0)
        )
        assert coeffs.boundary_damping.tolist() == [0.0, 3.0]

    def test_dict_by_label(self):
        mesh = wt.rectangle_mesh(
            2,
            2,
            {
                "left": (wt.Segment(BL.FIXED),),
                "right": (wt.Segment(BL.DAMPED),),
                "bottom": (wt.Segment(BL.ELASTIC),),
                "top": (wt.Segment(BL.ELASTIC_DAMPED),),
            },
        )
        coeffs = wt.sample_coefficients(
            mesh,
            boundary_stiffness={BL.ELASTIC: 2.0, "elastic_damped": 1.0},
            boundary_damping={"damped": 3.0},
        )
        for lab, k1, k2 in zip(
            mesh.facet_labels, coeffs.boundary_stiffness, coeffs.boundary_damping
        ):
            if lab is BL.ELASTIC:
                assert k1 == 2.0 and k2 == 0.0
            elif lab is BL.ELASTIC_DAMPED:
                assert k1 == 1.0 and k2 == 0.0
            elif lab is BL.DAMPED:
                assert k1 == 0.0 and k2 == 3.0
            else:
                assert k1 == 0.0 and k2 == 0.0

    def test_tensor_modulus(self):
        mesh = wt.rectangle_mesh(2, 2, models.uniform_sides(BL.FIXED))
        tensor = np.array([[2.0, 0.5], [0.5, 1.0]])
        coeffs = wt.sample_coefficients(mesh, modulus=tensor)
        assert coeffs.modulus.shape == (mesh.num_cells, 2, 2)
        assert np.allclose(coeffs.modulus[3], tensor)

    def test_asymmetric_tensor_rejected(self):
        mesh = wt.rectangle_mesh(2, 2, models.uniform_sides(BL.FIXED))
        with pytest.raises(wt.CoefficientError, match="symmetric"):
            wt.sample_coefficients(mesh, modulus=np.array([[2.0, 0.4], [0.1, 1.0]]))

    def test_tensor_needs_two_dimensions(self):
        with pytest.raises(wt.CoefficientError):
            wt.sample_coefficients(wt.interval_mesh(3), modulus=np.eye(2))

    def test_nonpositive_fields_rejected(self):
        mesh = wt.interval_mesh(3)
        with pytest.raises(wt.CoefficientError, match="modulus"):
            wt.sample_coefficients(mesh, modulus=0.0)
        with pytest.raises(wt.CoefficientError, match="density"):
            wt.sample_coefficients(mesh, density=lambda p: p[:, 0] - 1.0)

    def test_nonfinite_sample_rejected(self):
        with pytest.raises(wt.CoefficientError, match="non-finite"):
            wt.sample_coefficients(wt.interval_mesh(3), density=np.inf)

    def test_wrong_sample_count_rejected(self):
        with pytest.raises(wt.CoefficientError):
            wt.sample_coefficients(wt.interval_mesh(3), modulus=np.ones(7))


class TestValidateModel:
    def test_valid_damped_model_reports_damping(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=3.0)
        assert wt.validate_model(mesh, coeffs) is True

    def test_undamped_model_reports_no_damping(self):
        mesh = wt.interval_mesh(4)
        coeffs = wt.sample_coefficients(mesh)
        assert wt.validate_model(mesh, coeffs) is False

    def test_zero_damper_coefficient_counts_as_undamped(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=0.0)
        assert wt.validate_model(mesh, coeffs) is False

    def test_cellwise_shape_mismatch(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        broken = dataclasses.replace(coeffs, density=np.ones(9))
        with pytest.raises(wt.CoefficientError):
            wt.validate_model(mesh, broken)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", FIELDS)
    def test_non_finite_value_rejected(self, field, bad):
        # One bad value in any field of a hand-built set is refused; the
        # right end takes both a spring and a damper.
        mesh = wt.interval_mesh(4, left=BL.ELASTIC, right=BL.ELASTIC_DAMPED)
        coeffs = wt.sample_coefficients(mesh, boundary_stiffness=1.0, boundary_damping=1.0)
        values = getattr(coeffs, field).copy()
        values[-1] = bad
        broken = dataclasses.replace(coeffs, **{field: values})
        with pytest.raises(wt.CoefficientError, match=f"{field}: non-finite"):
            wt.validate_model(mesh, broken)

    def test_tensor_modulus_on_a_1d_mesh_rejected(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        tensors = np.broadcast_to(np.eye(2), (mesh.num_cells, 2, 2)).copy()
        with pytest.raises(wt.CoefficientError, match="modulus: expected shape"):
            wt.validate_model(mesh, dataclasses.replace(coeffs, modulus=tensors))

    def test_sampling_and_validation_share_one_check(self, monkeypatch):
        calls = []
        real = coefficients._check_assumptions
        monkeypatch.setattr(
            coefficients, "_check_assumptions", lambda *args: calls.append(1) or real(*args)
        )
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        assert len(calls) == 1
        wt.validate_model(mesh, coeffs)
        assert len(calls) == 2

    def test_value_on_unlabeled_facet_rejected(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        # Hand-planted spring on the damper-only facet.
        broken = dataclasses.replace(coeffs, boundary_stiffness=np.array([0.0, 2.0]))
        with pytest.raises(wt.CoefficientError, match="spring"):
            wt.validate_model(mesh, broken)

    def test_negative_boundary_field_rejected(self):
        mesh = damped_interval()
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        broken = dataclasses.replace(coeffs, boundary_damping=np.array([0.0, -1.0]))
        with pytest.raises(wt.CoefficientError, match="nonnegative"):
            wt.validate_model(mesh, broken)

    def test_degenerate_energy_norm(self):
        mesh = wt.interval_mesh(4, left=BL.FREE, right=BL.DAMPED)
        coeffs = wt.sample_coefficients(mesh, boundary_damping=1.0)
        with pytest.raises(wt.DegenerateEnergyNormError):
            wt.validate_model(mesh, coeffs)

    def test_spring_rescues_unclamped_model(self):
        mesh = wt.interval_mesh(4, left=BL.ELASTIC, right=BL.DAMPED)
        coeffs = wt.sample_coefficients(
            mesh, boundary_stiffness=2.0, boundary_damping=1.0
        )
        assert wt.validate_model(mesh, coeffs) is True

    def test_gram_positive_definite_iff_valid(self):
        # Cross-module property: assemble_pencil factors the energy Gram,
        # so it succeeds exactly when validation does.
        cases = [
            (wt.interval_mesh(4), dict()),
            (damped_interval(), dict(boundary_damping=3.0)),
            (wt.interval_mesh(4, left=BL.ELASTIC, right=BL.ELASTIC),
             dict(boundary_stiffness=1.0)),
            (wt.interval_mesh(4, left=BL.FREE, right=BL.FREE), dict()),
            (wt.interval_mesh(4, left=BL.ELASTIC, right=BL.FREE),
             dict(boundary_stiffness=0.0)),
        ]
        for mesh, kwargs in cases:
            coeffs = wt.sample_coefficients(mesh, **kwargs)
            try:
                wt.validate_model(mesh, coeffs)
                valid = True
            except wt.DegenerateEnergyNormError:
                valid = False
            if valid:
                assert wt.assemble_pencil(mesh, coeffs).gram.shape[0] > 0
            else:
                with pytest.raises(wt.DegenerateEnergyNormError):
                    wt.assemble_pencil(mesh, coeffs).gram
