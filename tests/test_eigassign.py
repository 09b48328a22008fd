import numpy as np
import pytest

from rssd.errors import (
    BoundViolation,
    DimensionMismatch,
    IllConditioned,
)
from rssd.eigassign import (
    EigTarget,
    EntryConstraint,
    ModeTarget,
    allowable_subspace,
    compute_gain,
    in_S1,
    select_vectors,
)
from rssd.lti import IMAG_AXIS_RTOL


def double_integrator():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.eye(2)
    return A, B, C


class TestAllowableSubspace:
    def test_real_eigenvalue_dimension(self):
        A, B, _ = double_integrator()
        sub = allowable_subspace(A, B, -1.0)
        assert sub.basis.shape == (3, 1)

    def test_complex_eigenvalue_real_augmented(self):
        A, B, _ = double_integrator()
        sub = allowable_subspace(A, B, complex(-1.0, 2.0))
        # rows stack (R_re, R_im, W_re, W_im)
        assert sub.basis.shape[0] == 2 * 2 + 2 * 1
        assert sub.basis.shape[1] >= 1

    def test_subspace_satisfies_defining_equation(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 2))
        lam = -1.5
        sub = allowable_subspace(A, B, lam)
        for col in sub.basis.T:
            r, w = col[:3], col[3:]
            assert np.linalg.norm((A - lam * np.eye(3)) @ r + B @ w) < 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_never_empty(self, seed):
        # the block has n (2n) rows and n + m (2(n + m)) columns, so it has
        # at least m (2m) null directions: on an eigenvalue of A too, and
        # for a rank-deficient B
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        blocks = np.zeros((4, 4))
        blocks[:2, :2] = [[-0.5, 2.0], [-2.0, -0.5]]
        blocks[2:, 2:] = rng.normal(size=(2, 2))
        A = Q @ blocks @ Q.T
        b = rng.normal(size=(4, 2))
        lams = [-1.3, complex(-0.4, 1.1), *np.linalg.eigvals(A)]
        for B in (b, np.column_stack([b, b[:, :1], np.zeros(4)])):
            m = B.shape[1]
            for lam in lams:
                sub = allowable_subspace(A, B, lam)
                assert sub.basis.shape[1] >= sub.width * m

    @pytest.mark.parametrize("lam", [-1.0, 0.0, 1j], ids=["off", "on", "complex"])
    def test_input_matrix_without_columns_refused(self, lam):
        A, _, _ = double_integrator()  # eig(A) = {0, 0}
        with pytest.raises(DimensionMismatch, match="m must be > 0"):
            allowable_subspace(A, np.zeros((2, 0)), lam)


class TestGainComputation:
    def test_double_integrator_oracle(self):
        A, B, C = double_integrator()
        target = EigTarget((ModeTarget("real", 0.5, 3.0),
                            ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
        subs = [allowable_subspace(A, B, -1.0),
                allowable_subspace(A, B, -2.0)]
        W, R = select_vectors(subs, target, ((), ()))
        K = compute_gain(W, R, C)
        np.testing.assert_allclose(K, [[-2.0, -3.0]], atol=1e-9)

    def test_column_scaling_invariance(self):
        A, B, C = double_integrator()
        target = EigTarget((ModeTarget("real", 0.5, 3.0),
                            ModeTarget("real", 0.5, 3.0)), zeta_min=0.5)
        subs = [allowable_subspace(A, B, -1.0),
                allowable_subspace(A, B, -2.0)]
        W, R = select_vectors(subs, target, ((), ()))
        K = compute_gain(W, R, C)
        scale = np.array([3.7, -0.2])
        K2 = compute_gain(W * scale, R * scale, C)
        np.testing.assert_allclose(K, K2, atol=1e-10)

    def test_random_triples_exact_assignment(self):
        rng = np.random.default_rng(17)
        done = 0
        while done < 25:
            n = int(rng.integers(2, 4))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, 1))
            C = np.eye(n)
            lams = -rng.uniform(0.5, 4.0, size=n)
            lams += np.arange(n) * 1e-2  # keep them distinct
            try:
                subs = [allowable_subspace(A, B, l) for l in lams]
                target = EigTarget(tuple(
                    ModeTarget("real", 0.1, 10.0) for _ in range(n)),
                    zeta_min=0.1)
                W, R = select_vectors(subs, target, tuple(() for _ in range(n)))
                K = compute_gain(W, R, C)
            except IllConditioned:
                continue
            got = np.sort(np.linalg.eigvals(A + B @ K @ C).real)
            assert np.allclose(np.sort(lams), got, atol=1e-6)
            done += 1

    def test_ill_conditioned_guard(self):
        W = np.array([[1.0, 1.0]])
        R = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]])
        with pytest.raises(IllConditioned):
            compute_gain(W, R, np.eye(2))


class TestEntryConstraints:
    def test_achievable_entry_honored(self):
        A, B, _ = double_integrator()
        # for lambda=-1 the subspace forces r2 = -r1; constrain r1
        sub = allowable_subspace(A, B, -1.0)
        mode = ModeTarget("real", 0.5, 3.0,
                          entries=(EntryConstraint(0, 0.4, 0.6),))
        target = EigTarget((mode,), zeta_min=0.5)
        W, R = select_vectors([sub], target, ((0.5,),))
        assert 0.4 - 1e-6 <= R[0, 0] <= 0.6 + 1e-6

    def test_unachievable_entry_rejected(self):
        rng = np.random.default_rng(2)
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [0.0]])  # second state unreachable at lambda=-3
        sub = allowable_subspace(A, B, -3.0)
        mode = ModeTarget("real", 0.5, 5.0,
                          entries=(EntryConstraint(1, 0.9, 1.0),))
        target = EigTarget((mode,), zeta_min=0.5)
        with pytest.raises(BoundViolation):
            select_vectors([sub], target, ((0.95,),))

    def test_negative_state_rejected(self):
        # it read the basis's last row, an input direction
        with pytest.raises(DimensionMismatch, match="negative"):
            EntryConstraint(-1, 0.4, 0.6)

    @pytest.mark.parametrize("lam", [-1.0, complex(-1.0, 2.0)])
    def test_state_beyond_the_plant_rejected(self, lam):
        # state 2 of a 2-state plant is the input row of a real basis and
        # beyond a complex one's rows
        A, B, _ = double_integrator()
        mode = ModeTarget("real" if lam.imag == 0 else "complex", 0.5, 3.0,
                          entries=(EntryConstraint(2, 0.4, 0.6),))
        target = EigTarget((mode,), zeta_min=0.3)
        with pytest.raises(DimensionMismatch, match="state 2 .* order 2"):
            select_vectors([allowable_subspace(A, B, lam)], target, ((0.5,),))


class TestComplexEntryConstraints:
    # a complex mode's entries are complex: the NAV target constrains
    # entries of both its complex pairs
    LAM = complex(-1.5, 2.0)
    ENTRIES = (EntryConstraint(0, 0.0, 0.5, -0.5, 0.0),
               EntryConstraint(2, -0.5, 0.0, 0.0, 0.5))

    def assign(self, values):
        rng = np.random.default_rng(5)
        A, B = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
        mode = ModeTarget("complex", 0.5, 5.0, self.ENTRIES[:len(values)])
        W, R = select_vectors([allowable_subspace(A, B, self.LAM)],
                              EigTarget((mode,), zeta_min=0.3), (values,))
        return A, B, R[:, 0] + 1j * R[:, 1], W[:, 0] + 1j * W[:, 1]

    # without entries the pair is the basis' first column, split into R and
    # W by the same stacked layout
    @pytest.mark.parametrize("values", [(0.3 - 0.2j,),
                                        (0.3 - 0.2j, -0.4 + 0.1j), ()])
    def test_entries_met_on_the_subspace(self, values):
        A, B, r, w = self.assign(values)
        np.testing.assert_allclose([r[e.state] for e in self.ENTRIES[:len(values)]],
                                   values, rtol=0.0, atol=1e-12)
        residual = (A - self.LAM * np.eye(4)) @ r + B @ w
        scale = (np.linalg.norm(A) + abs(self.LAM) + np.linalg.norm(B)) \
            * np.linalg.norm(np.concatenate([r, w]))
        assert np.linalg.norm(residual) <= 1e-14 * scale

    @pytest.mark.parametrize("values", [(0.52 - 0.2j,),
                                        (0.3 - 0.2j, -0.4 + 0.52j)])
    def test_value_outside_its_box_rejected(self, values):
        # each box is 0.5 wide, so 0.02 outside exceeds the 1% slack
        with pytest.raises(BoundViolation):
            self.assign(values)


class TestDampingRegion:
    def test_boundary_damping_accepted(self):
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3)
        assert in_S1(np.array([-1.0 + 3.18j, -1.0 - 3.18j]), target)

    def test_low_damping_rejected(self):
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3)
        assert not in_S1(np.array([-2.0, -0.5 + 5.0j, -0.5 - 5.0j]), target)

    def test_rhp_rejected(self):
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3)
        assert not in_S1(np.array([-1.0, 0.1]), target)
        assert not in_S1(np.array([0.0j]), target)

    def test_marginal_rejected(self):
        # -1e-12 has damping 1 but lies inside the imaginary-axis band
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3)
        assert not in_S1(np.array([-1e-12]), target)

    def test_nan_rejected(self):
        # a spectrum outside the open left half plane in any way fails, so a
        # caller needs no stability test beside this one
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3)
        assert not in_S1(np.array([-1.0, complex(np.nan, 0.0)]), target)

    def test_matches_scalar_reference_on_the_boundary(self):
        # per-eigenvalue reference on Python's scalar abs(complex); a third of
        # the spectra sit exactly on the slackened constant-zeta line, where
        # one ulp decides
        def reference(eigs, target):
            return all(lam.real < 0.0
                       and -lam.real > IMAG_AXIS_RTOL * max(1.0, abs(lam))
                       and not -lam.real / abs(lam) < target.zeta_min * (1.0 - 1e-3)
                       and not (target.sigma_max is not None
                                and lam.real > target.sigma_max)
                       for lam in eigs.tolist())

        rng = np.random.default_rng(3)
        verdicts = set()
        for i in range(2000):
            zeta_min = rng.uniform(0.05, 0.95)
            target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min,
                               None if i % 2 else -rng.uniform(0.0, 2.0))
            k = rng.integers(1, 9)
            wn = rng.uniform(0.0, 5.0, k)
            zeta = (np.full(k, zeta_min * (1.0 - 1e-3)) if i % 3 == 0
                    else rng.uniform(-0.2, 1.0, k))
            eigs = -zeta * wn + 1j * wn * np.sqrt(np.clip(1.0 - zeta ** 2, 0.0, None))
            got = in_S1(eigs, target)
            assert got == reference(eigs, target)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_sigma_max_cap(self):
        target = EigTarget((ModeTarget("real", 0.1, 10.0),), zeta_min=0.3,
                           sigma_max=-0.5)
        assert in_S1(np.array([-1.0, -0.5]), target)
        assert not in_S1(np.array([-1.0, -0.2]), target)


class TestRefusals:
    # each input guard refuses with its own typed error
    @pytest.mark.parametrize("build, match", [
        pytest.param(lambda: EntryConstraint(0, 1.0, -1.0), "empty bound box",
                     id="empty-box"),
        pytest.param(lambda: ModeTarget("imaginary", 1.0, 2.0),
                     "unknown mode kind", id="unknown-kind"),
        pytest.param(lambda: ModeTarget("real", 0.0, 2.0),
                     "natural-frequency bounds", id="zero-wn"),
        pytest.param(lambda: EigTarget((), 1.0), "zeta_min", id="zeta-min-one"),
        # a pair's damping box would be (0.9995, ZETA_MAX), inverted
        pytest.param(lambda: EigTarget((ModeTarget("real", 1.0, 2.0),
                                        ModeTarget("complex", 1.0, 2.0)), 0.9995),
                     "above a conjugate pair's largest damping ratio 0.999",
                     id="zeta-min-above-pair"),
        pytest.param(lambda: allowable_subspace(np.eye(2), np.ones((3, 1)), -1.0),
                     "inconsistent", id="b-rows"),
        pytest.param(lambda: select_vectors(
            [], EigTarget((ModeTarget("real", 1.0, 2.0),), 0.5), []),
                     "one subspace required", id="subspace-count"),
        pytest.param(lambda: compute_gain(np.ones((1, 2)), np.eye(2),
                                          np.ones((1, 2))),
                     "CR must be square", id="cr-not-square"),
    ])
    def test_refused(self, build, match):
        with pytest.raises(DimensionMismatch, match=match):
            build()
