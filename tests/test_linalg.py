"""Tests for operators, states, tensor products, projective measurements and controlled unitaries."""

import math

import numpy as np
import pytest

from typicality_lab.linalg import (
    ATOL,
    I2,
    MeasurementOperatorSet,
    X,
    Z,
    as_operator,
    as_state,
    basis,
    check_completeness,
    controlled_unitary,
    dag,
    involutory_pvm,
    ket_plus,
    projector,
    tensor,
)

SQRT2 = math.sqrt(2.0)


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pvm_projectors(rng, dim, parts):
    """Split the columns of a random unitary into `parts` orthogonal projectors."""
    u = random_unitary(rng, dim)
    cuts = sorted(rng.choice(range(1, dim), size=parts - 1, replace=False)) if parts > 1 else []
    bounds = [0, *cuts, dim]
    projs = []
    for lo, hi in zip(bounds, bounds[1:]):
        cols = u[:, lo:hi]
        projs.append(cols @ cols.conj().T)
    return projs


class TestValidation:
    def test_operator_must_be_square(self):
        with pytest.raises(ValueError, match="square"):
            as_operator(np.zeros((2, 3)))

    def test_operator_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_operator([[float("nan"), 0], [0, 1]])

    def test_state_must_be_normalized(self):
        with pytest.raises(ValueError, match="unit norm"):
            as_state([1.0, 1.0])

    def test_state_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_state([float("inf"), 0.0])


class TestTensor:
    def test_identity_times_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_ordering(self):
        # |0> (x) |1> puts the left factor in the most significant bit.
        result = tensor(basis(2, 0), basis(2, 1))
        np.testing.assert_array_equal(result, [0, 1, 0, 0])

    def test_x_tensor_z_entries(self):
        # Hand-expanded Kronecker product of X and Z.
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, -1],
                [1, 0, 0, 0],
                [0, -1, 0, 0],
            ],
            dtype=complex,
        )
        got = tensor(X, Z)
        np.testing.assert_array_equal(got, expected)
        assert got[0, 2] == 1
        assert got[1, 3] == -1

    def test_associative_up_to_relabeling(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            np.testing.assert_allclose(left, right, atol=ATOL)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError, match="all be operators or all be states"):
            tensor(I2, basis(2, 0))

    def test_dimension_cap(self):
        big = np.eye(128)
        with pytest.raises(ValueError, match="exceeds cap"):
            tensor(big, big)


class TestPvm:
    def test_involutory_pvm_z(self):
        pvm = involutory_pvm(Z)
        np.testing.assert_allclose(pvm.operator_for(+1), projector(basis(2, 0)), atol=ATOL)
        np.testing.assert_allclose(pvm.operator_for(-1), projector(basis(2, 1)), atol=ATOL)

    def test_involutory_pvm_x(self):
        pvm = involutory_pvm(X)
        np.testing.assert_allclose(pvm.operator_for(+1), np.full((2, 2), 0.5), atol=ATOL)

    def test_involutory_pvm_rotated(self):
        s = -(X + Z) / SQRT2
        pvm = involutory_pvm(s)
        plus, minus = pvm.operator_for(+1), pvm.operator_for(-1)
        np.testing.assert_allclose(plus - minus, s, atol=ATOL)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=ATOL)
        np.testing.assert_allclose(plus @ minus, np.zeros((2, 2)), atol=ATOL)

    def test_involutory_properties_random(self):
        # E+ + E- = I and E+ E- = 0 for arbitrary Hermitian involutions.
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            u = random_unitary(rng, dim)
            signs = rng.choice([1.0, -1.0], size=dim)
            if np.all(signs == signs[0]):
                signs[0] = -signs[0]
            obs = u @ np.diag(signs) @ u.conj().T
            obs = (obs + obs.conj().T) / 2
            pvm = involutory_pvm(obs)
            plus, minus = pvm.operator_for(+1), pvm.operator_for(-1)
            np.testing.assert_allclose(plus + minus, np.eye(dim), atol=ATOL)
            np.testing.assert_allclose(plus @ minus, np.zeros((dim, dim)), atol=ATOL)
            np.testing.assert_allclose(plus - minus, obs, atol=ATOL)

    def test_rejects_non_involutory(self):
        with pytest.raises(ValueError, match="square to the identity"):
            involutory_pvm(X + Z)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            involutory_pvm([[0, 1], [0, 0]])

    def test_pvm_rejects_bad_sum(self):
        p = projector(basis(2, 0))
        with pytest.raises(ValueError, match="sum to the identity"):
            MeasurementOperatorSet([(0, p)])

    def test_pvm_rejects_non_orthogonal(self):
        p0 = projector(basis(2, 0))
        pp = projector(ket_plus())
        with pytest.raises(ValueError, match="orthogonal"):
            MeasurementOperatorSet([(0, p0), (1, pp)])

    def test_pvm_rejects_duplicate_labels(self):
        p0 = projector(basis(2, 0))
        p1 = projector(basis(2, 1))
        with pytest.raises(ValueError, match="distinct"):
            MeasurementOperatorSet([(0, p0), (0, p1)])


class TestControlledUnitary:
    def test_single_branch(self):
        u1 = X
        got = controlled_unitary([(u1, np.eye(2))])
        np.testing.assert_allclose(got, tensor(X, I2), atol=ATOL)

    def test_cnot_with_right_control(self):
        # I (x) |0><0| + X (x) |1><1|, written out by hand in the
        # target-(x)-control basis |t,c>: flips t exactly when c = 1.
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 0, 1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
            ],
            dtype=complex,
        )
        got = controlled_unitary(
            [(I2, projector(basis(2, 0))), (X, projector(basis(2, 1)))]
        )
        np.testing.assert_array_equal(got, expected)

    def test_measurement_switch_is_unitary(self):
        # The coin-controlled switch between the two measurement
        # interactions of the CHSH protocol's first party.  Each
        # interaction V_c acts on qubit (x) record-qubit, writing the
        # outcome of the X (c=0) or Z (c=1) measurement into the record:
        #   V_c (|psi> (x) |0>) = sum_m (E_{c,m}|psi>) (x) |m-record>.
        # The coin record space is 3-dimensional; its PVM is the two coin
        # records plus the leftover projector padding the partition.
        def interaction(pvm):
            return tensor(pvm.operator_for(+1), I2) + tensor(pvm.operator_for(-1), X)

        v0 = interaction(involutory_pvm(X))
        v1 = interaction(involutory_pvm(Z))
        p0 = np.diag([1.0, 0.0, 0.0])
        p1 = np.diag([0.0, 1.0, 0.0])
        pad = np.diag([0.0, 0.0, 1.0])
        u = controlled_unitary([(v0, p0), (v1, p1), (np.eye(4), pad)])
        np.testing.assert_allclose(dag(u) @ u, np.eye(12), atol=ATOL)
        np.testing.assert_allclose(u @ dag(u), np.eye(12), atol=ATOL)
        # Branch action: a coin record fixed by p1 selects the Z-measurement
        # interaction v1, and v1 routes each eigenstate to its record.
        rng = np.random.default_rng(5)
        theta = rng.normal(size=4) + 1j * rng.normal(size=4)
        theta /= np.linalg.norm(theta)
        phi = basis(3, 1)
        np.testing.assert_allclose(
            u @ np.kron(theta, phi), np.kron(v1 @ theta, phi), atol=ATOL
        )
        start = np.kron(basis(2, 1), basis(2, 0))  # |1> (x) blank record
        np.testing.assert_allclose(
            v1 @ start, np.kron(basis(2, 1), basis(2, 1)), atol=ATOL
        )

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            dim_u = int(rng.integers(2, 5))
            dim_c = int(rng.integers(2, 5))
            parts = int(rng.integers(1, dim_c + 1))
            projs = random_pvm_projectors(rng, dim_c, parts)
            branches = [(random_unitary(rng, dim_u), p) for p in projs]
            u = controlled_unitary(branches)
            eye = np.eye(dim_u * dim_c)
            np.testing.assert_allclose(dag(u) @ u, eye, atol=ATOL)
            np.testing.assert_allclose(u @ dag(u), eye, atol=ATOL)

    def test_rejects_non_unitary_branch(self):
        with pytest.raises(ValueError, match="not unitary"):
            controlled_unitary([(np.diag([1.0, 2.0]), np.eye(2))])

    def test_rejects_non_pvm_projectors(self):
        p0 = projector(basis(2, 0))
        with pytest.raises(ValueError):
            controlled_unitary([(I2, p0), (X, p0)])


class TestCompleteness:
    def test_pvm_as_measurement_operators_is_exact(self):
        pvm = involutory_pvm(Z)
        assert check_completeness(list(pvm)) == 0.0

    def test_operator_set_iterates_as_its_pairs(self):
        pvm = involutory_pvm(X)
        assert isinstance(pvm, MeasurementOperatorSet)
        assert check_completeness(pvm) == check_completeness(list(pvm))

    def test_deviation_of_incomplete_pairs(self):
        assert check_completeness([("a", I2), ("b", I2)]) == 1.0

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            check_completeness([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="one dimension"):
            check_completeness([("a", I2), ("b", np.eye(4))])

    def test_non_complete_set_rejected(self):
        with pytest.raises(ValueError, match="completeness"):
            MeasurementOperatorSet([("a", I2), ("b", I2)])

    def test_duplicate_labels_rejected(self):
        pvm = involutory_pvm(Z)
        elements = [("a", pvm.operator_for(+1)), ("a", pvm.operator_for(-1))]
        with pytest.raises(ValueError, match="distinct"):
            MeasurementOperatorSet(elements)

    def test_outcome_probabilities_sum_to_one(self):
        pvm = involutory_pvm(X)
        mset = MeasurementOperatorSet(list(pvm))
        probs = mset.outcome_probabilities(basis(2, 0))
        assert sum(probs.values()) == pytest.approx(1.0, abs=ATOL)
        assert probs[+1] == pytest.approx(0.5, abs=ATOL)
