import numpy as np
import pytest

from rssd.errors import (
    ComputationFailed,
    DimensionMismatch,
    ImproperSection,
    UnstableSection,
)
from rssd.lti import (
    CompensatorBank,
    FirstOrderSection,
    FrequencyGrid,
    PlantSet,
    StateSpacePlant,
    augment_plant,
    cascade,
    eigen_info,
    eval_response,
    is_imag_axis,
    sorted_spectrum,
)


class TestStateSpacePlant:
    def test_dimensions(self):
        p = StateSpacePlant(np.zeros((2, 2)), np.ones((2, 1)),
                            np.ones((1, 2)), np.zeros((1, 1)))
        assert (p.n, p.m, p.r) == (2, 1, 1)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSpacePlant(np.zeros((2, 2)), np.ones((3, 1)),
                            np.ones((1, 2)), np.zeros((1, 1)))

    def test_one_dimensional_b_rejected(self):
        # B is an n x m matrix: a 1-D B with n > 1 is a 1 x n row, not a column
        with pytest.raises(DimensionMismatch, match="^B: "):
            StateSpacePlant(np.zeros((2, 2)), np.ones(2),
                            np.ones((1, 2)), np.zeros((1, 1)))

    def test_static_gain(self):
        p = StateSpacePlant.from_gain(np.array([[2.0]]))
        assert p.n == 0
        resp = eval_response(p, np.array([1j]))
        assert resp[0, 0, 0] == 2.0

    def test_siso_helper(self):
        p = StateSpacePlant.siso(-1.0, 1.0)
        resp = eval_response(p, np.array([0.0 + 0.0j]))[0, 0, 0]
        assert abs(resp - 1.0) < 1e-12

    def test_integrator_response(self):
        p = StateSpacePlant.siso(0.0, 1.0)
        resp = eval_response(p, np.array([1j]))[0, 0, 0]
        assert abs(resp - (-1j)) < 1e-12


class TestFrequencyGrid:
    def test_default_shape(self):
        g = FrequencyGrid.default()
        assert g.points.size == 400
        assert g.points[0] == pytest.approx(1e-3)
        assert g.points[-1] == pytest.approx(1e5)

    def test_unsorted_rejected(self):
        with pytest.raises(DimensionMismatch):
            FrequencyGrid(np.array([2.0, 1.0]))


class TestSpectrum:
    def test_damping_of_complex_pair(self):
        # poles at -1 +/- 2j: zeta = 1/sqrt(5), wn = sqrt(5)
        info = eigen_info(-1 + 2j)
        assert info.damping == pytest.approx(1 / np.sqrt(5))
        assert info.natural_frequency == pytest.approx(np.sqrt(5))

    def test_origin_pole_marginal(self):
        info = eigen_info(0.0)
        assert info.damping == pytest.approx(1.0)
        assert info.natural_frequency == 0.0

    def test_conjugate_pairs_adjacent(self):
        A = np.diag([-3.0]) if False else np.array(
            [[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
        spec = sorted_spectrum(np.linalg.eigvals(A))
        values = [s.value for s in spec]
        pair = [i for i, v in enumerate(values) if abs(v.imag) > 1e-9]
        assert len(pair) == 2
        assert pair[1] == pair[0] + 1
        assert values[pair[0]] == pytest.approx(np.conj(values[pair[1]]))


    def test_imag_axis_test_is_elementwise_and_relative(self):
        eig = np.array([0.0, 1e-12 + 5j, 1e-6 + 5e3j, 1e-6 + 1j, -2.0])
        np.testing.assert_array_equal(is_imag_axis(eig),
                                      [True, True, True, False, False])
        assert is_imag_axis(2j) and not is_imag_axis(-1e-3 + 2j)

class TestFreqResponse:
    def test_matches_transfer_function(self):
        p = StateSpacePlant.siso(-2.0, 3.0)  # 3/(s+2)
        omega = np.array([0.7, 11.0])
        resp = eval_response(p, 1j * omega)
        expected = 3.0 / (1j * omega + 2.0)
        np.testing.assert_allclose(resp[:, 0, 0], expected, rtol=1e-12)

    def test_point_on_a_pole_raises(self):
        # 1/(s^2 + 1) at s = j: sI - A is exactly singular, and no finite
        # value is right there
        osc = StateSpacePlant([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                              [[1.0, 0.0]], [[0.0]], "osc")
        with pytest.raises(ComputationFailed, match="plant 'osc'"):
            eval_response(osc, [0.5j, 1j])


class TestCascadeAugment:
    def test_series_response(self):
        p1 = StateSpacePlant.siso(-1.0, 1.0)
        p2 = StateSpacePlant.siso(-2.0, 4.0)
        series = cascade(p1, p2)  # P2(s) P1(s)
        s = np.array([0.3j, 2j])
        expected = (4.0 / (s + 2.0)) * (1.0 / (s + 1.0))
        got = eval_response(series, s)[:, 0, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_augment_identity_banks_is_plant(self):
        p = StateSpacePlant.siso(-1.0, 2.0)
        aug = augment_plant(CompensatorBank.identity(1, "out"), p,
                            CompensatorBank.identity(1, "in"))
        s = np.array([1j, 5j])
        np.testing.assert_allclose(eval_response(aug, s),
                                   eval_response(p, s), rtol=1e-12)


class TestFirstOrderSection:
    def test_published_shape_dc_gain(self):
        sec = FirstOrderSection(1.0, 7.36, 0.007, 10.1)
        assert sec.b / sec.d == pytest.approx(7.36 / 10.1)
        assert sec.pole == pytest.approx(-10.1 / 0.007)
        assert sec.zero == pytest.approx(-7.36)

    def test_improper_rejected(self):
        with pytest.raises(ImproperSection):
            FirstOrderSection(1.0, 1.0, 0.0, 1.0)

    def test_unstable_pole_flagged(self):
        sec = FirstOrderSection(0.0, 1.0, 1.0, -2.0)
        with pytest.raises(UnstableSection):
            sec.require_stable()

    def test_static_section(self):
        sec = FirstOrderSection(0.0, 3.0, 0.0, 2.0)
        assert sec.is_static
        assert sec.b / sec.d == pytest.approx(1.5)


class TestRealizeBank:
    def test_dynamic_section_response(self):
        sec = FirstOrderSection(1.0, 7.36, 0.007, 10.1)
        sys = CompensatorBank((sec,), "in").realization
        s = np.array([0.0j, 3j, 100j])
        expected = (s + 7.36) / (0.007 * s + 10.1)
        got = eval_response(sys, s)[:, 0, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_mixed_static_dynamic_diagonal(self):
        bank = CompensatorBank((FirstOrderSection(0.0, 2.0, 0.0, 1.0),
                                FirstOrderSection(0.0, 1.0, 1.0, 1.0)), "in")
        sys = bank.realization
        assert sys.n == 1
        resp = eval_response(sys, np.array([1j]))[0]
        assert resp[0, 1] == 0.0 and resp[1, 0] == 0.0
        assert resp[0, 0] == pytest.approx(2.0)
        assert resp[1, 1] == pytest.approx(1.0 / (1j + 1.0))


class TestPlantSet:
    def test_mixed_channel_counts_rejected(self):
        p1 = StateSpacePlant.siso(-1.0, 1.0)
        p2 = StateSpacePlant(np.diag([-1.0]), np.ones((1, 2)),
                             np.ones((1, 1)), np.zeros((1, 2)))
        with pytest.raises(DimensionMismatch):
            PlantSet((p1, p2))


class TestRefusals:
    # each input guard refuses with its own typed error, never with whatever
    # the unguarded arithmetic happens to raise
    @pytest.mark.parametrize("build, error, match", [
        pytest.param(lambda: StateSpacePlant([[np.nan]], [[1.0]], [[1.0]],
                                             [[0.0]]),
                     DimensionMismatch, "non-finite", id="non-finite-entry"),
        pytest.param(lambda: StateSpacePlant(np.ones((2, 3)), np.ones((2, 1)),
                                             np.ones((1, 2)), [[0.0]]),
                     DimensionMismatch, "A must be square", id="a-not-square"),
        pytest.param(lambda: PlantSet(()), DimensionMismatch, "nonempty",
                     id="empty-plant-set"),
        pytest.param(lambda: FrequencyGrid([1.0]), DimensionMismatch,
                     "at least 2", id="one-point-grid"),
        pytest.param(lambda: FrequencyGrid([-1.0, 1.0]), DimensionMismatch,
                     "finite and >= 0", id="negative-grid-point"),
        pytest.param(lambda: cascade(StateSpacePlant.from_gain(np.ones((2, 1))),
                                     StateSpacePlant.siso(-1.0)),
                     DimensionMismatch, "cascade", id="cascade-channels"),
        pytest.param(lambda: augment_plant(CompensatorBank.identity(1, "out"),
                                           StateSpacePlant.siso(-1.0),
                                           CompensatorBank.identity(2, "in")),
                     DimensionMismatch, "w_in has 2", id="w-in-channels"),
        pytest.param(lambda: augment_plant(CompensatorBank.identity(2, "out"),
                                           StateSpacePlant.siso(-1.0),
                                           CompensatorBank.identity(1, "in")),
                     DimensionMismatch, "w_out has 2", id="w-out-channels"),
        pytest.param(lambda: FirstOrderSection(np.inf, 0.0, 1.0, 1.0),
                     ImproperSection, "finite", id="infinite-coefficient"),
        pytest.param(lambda: FirstOrderSection(0.0, 2.0, 0.0, 1.0).pole,
                     ImproperSection, "no pole", id="static-section-pole"),
        pytest.param(lambda: CompensatorBank((), "in"), DimensionMismatch,
                     "nonempty", id="empty-bank"),
    ])
    def test_refused(self, build, error, match):
        with pytest.raises(error, match=match):
            build()
