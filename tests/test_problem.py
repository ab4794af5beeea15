import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import entrodual as ed
from entrodual.problem import NOISE_REL, SIMPLEX_TOL

from reference_values import (
    CHECKSUM_P1,
    CHECKSUM_P2,
    TOY_P1_THETA,
    TOY_P2_THETA,
)
from strategies import simplex_points, small_instances

DATA_DIR = Path(__file__).parent / "data"


class TestEntropy:
    def test_zero_extension(self):
        assert ed.entropy(np.zeros(4)) == 0.0
        assert ed.entropy(np.array([1.0, 0.0])) == 0.0

    def test_uniform_value(self):
        d = 5
        assert ed.entropy(np.full(d, 1.0 / d)) == pytest.approx(-math.log(d), abs=1e-12)

    def test_vertex_is_zero(self):
        e = np.zeros(6)
        e[2] = 1.0
        assert ed.entropy(e) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(simplex_points(d=4))
    def test_range_on_simplex(self, x):
        val = ed.entropy(x)
        assert -math.log(4) - 1e-12 <= val <= 0.0


class TestCheckSimplex:
    def test_accepts_tiny_negative(self):
        x = np.array([0.5, 0.5, -1e-12])
        assert ed.check_simplex(x) is not None

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            ed.check_simplex(np.array([0.6, 0.5, -0.1]))

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            ed.check_simplex(np.array([0.5, 0.4]))

    def test_tolerance_is_tight(self):
        x = np.array([0.5, 0.5 + 5 * SIMPLEX_TOL])
        with pytest.raises(ValueError):
            ed.check_simplex(x)


class TestProblemInstance:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            ed.ProblemInstance(2, 1, 2, 2.0, 0.5, np.zeros((2, 2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="shape"):
            ed.ProblemInstance(2, 1, 2, 2.0, 0.5, np.zeros((2, 1, 2)), np.zeros((2, 2)))

    def test_parameter_validation(self):
        A, b = np.zeros((2, 1, 2)), np.zeros((2, 1))
        with pytest.raises(ValueError, match="p must"):
            ed.ProblemInstance(2, 1, 2, 0.5, 0.5, A, b)
        with pytest.raises(ValueError, match="theta"):
            ed.ProblemInstance(2, 1, 2, 2.0, 0.0, A, b)
        with pytest.raises(ValueError, match="dimensions"):
            ed.ProblemInstance(0, 1, 2, 2.0, 0.5, np.zeros((0, 1, 2)), np.zeros((0, 1)))

    def test_rejects_nonfinite_data(self):
        A = np.zeros((2, 1, 2))
        A[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ed.ProblemInstance(2, 1, 2, 2.0, 0.5, A, np.zeros((2, 1)))

    def test_arrays_read_only(self, toy_p2):
        with pytest.raises(ValueError):
            toy_p2.A[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            toy_p2.b[0, 0] = 1.0

    def test_q_exponent(self, toy_p2, toy_p1):
        assert toy_p2.q_exponent == 2.0
        assert toy_p1.q_exponent == math.inf
        inst = ed.ProblemInstance(
            2, 1, 2, 1.5, 0.5, np.ones((2, 1, 2)), np.ones((2, 1))
        )
        assert inst.q_exponent == pytest.approx(3.0)

    def test_stacked_views(self, toy_p2):
        assert toy_p2.stacked_A().shape == (12, 5)
        assert toy_p2.stacked_b().shape == (12,)
        assert np.array_equal(toy_p2.stacked_A()[3:6], toy_p2.A[1])


class TestPrimalState:
    def test_validates_block_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ed.PrimalState(np.full((2, 3), 0.5), np.zeros(2))
        bad = np.array([[1.2, -0.2]])
        with pytest.raises(ValueError, match="below zero"):
            ed.PrimalState(bad, np.zeros(1))

    def test_accepts_valid_blocks(self):
        x = np.array([[0.25, 0.75], [1.0, 0.0]])
        st = ed.PrimalState(x, np.zeros(2))
        assert st.x_blocks.shape == (2, 2)


class TestObjectives:
    def test_p1_norm_used(self, toy_p1):
        x = np.full(toy_p1.d, 1.0 / toy_p1.d)
        res = toy_p1.stacked_A() @ x - toy_p1.stacked_b()
        expected = np.abs(res).sum() / toy_p1.m + toy_p1.theta * ed.entropy(x)
        assert ed.primal_objective(toy_p1, x) == pytest.approx(expected, rel=1e-12)

    def test_apply_blocks_matches_loop(self, toy_p2):
        rng = np.random.default_rng(2)
        X = rng.dirichlet(np.ones(toy_p2.d), size=toy_p2.m)
        out = ed.apply_blocks(toy_p2, X)
        manual = np.concatenate([toy_p2.A[i] @ X[i] for i in range(toy_p2.m)])
        assert np.allclose(out, manual, atol=1e-14)

    def test_consensus_residual_zero_iff_consensual(self, ring4):
        x = np.tile(np.array([0.2, 0.8]), (4, 1))
        assert ed.consensus_residual(ring4, x) == 0.0
        x2 = x.copy()
        x2[0] = [0.3, 0.7]
        assert ed.consensus_residual(ring4, x2) > 1e-3


class TestDataConstants:
    def test_matches_direct_svd(self, toy_p2):
        dc = ed.data_constants(toy_p2)
        svals = [np.linalg.svd(toy_p2.A[i], compute_uv=False) for i in range(toy_p2.m)]
        assert dc.sigma_max_A == pytest.approx(max(s[0] for s in svals), rel=1e-12)
        assert dc.sigma_min_plus_A == pytest.approx(
            min(s[-1] for s in svals), rel=1e-12
        )

    def test_zero_block_rejected(self):
        A = np.zeros((2, 1, 2))
        A[0] = [[1.0, 2.0]]
        inst = ed.ProblemInstance(2, 1, 2, 2.0, 0.5, A, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="singular value"):
            ed.data_constants(inst)

    def test_all_zero_rejected(self):
        inst = ed.ProblemInstance(2, 1, 2, 2.0, 0.5, np.zeros((2, 1, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="zero"):
            ed.data_constants(inst)

    def test_zero_block_leaves_lipschitz_constants_defined(self):
        A = np.zeros((2, 1, 2))
        A[0] = [[3.0, 4.0]]
        inst = ed.ProblemInstance(2, 1, 2, 2.0, 0.5, A, np.zeros((2, 1)))
        c = ed.lipschitz_constants(inst, ed.build_laplacian(ed.topology_path(2)))
        assert c.L_s == pytest.approx(25.0 / (2 * 0.5), rel=1e-12)
        with pytest.raises(ValueError, match="A_1"):
            ed.data_constants(inst)

    def test_singular_values_taken_once_and_read_only(self, toy_p2):
        svals = toy_p2.block_singular_values
        assert toy_p2.block_singular_values is svals
        assert not svals.flags.writeable


class TestGenerator:
    def test_deterministic(self):
        a = ed.generate_instance(3, 3, 2, 4, 2.0, 0.5)
        b = ed.generate_instance(3, 3, 2, 4, 2.0, 0.5)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)

    def test_seeds_differ(self):
        a = ed.generate_instance(3, 3, 2, 4, 2.0, 0.5)
        b = ed.generate_instance(4, 3, 2, 4, 2.0, 0.5)
        assert not np.array_equal(a.A, b.A)

    def test_toy_checksums_pinned(self, toy_p2, toy_p1):
        assert ed.instance_checksum(toy_p2) == CHECKSUM_P2
        assert ed.instance_checksum(toy_p1) == CHECKSUM_P1

    def test_theta_only_affects_header(self, toy_p2):
        other = ed.generate_instance(7, 4, 3, 5, 2.0, TOY_P1_THETA)
        assert np.array_equal(other.A, toy_p2.A)
        assert np.array_equal(other.b, toy_p2.b)
        assert ed.instance_checksum(other) != CHECKSUM_P2

    def test_planted_point_fits_within_noise(self):
        # regenerate the planted x0 from the same stream and check the residual
        inst = ed.generate_instance(11, 4, 2, 6, 2.0, 0.5)
        rng = np.random.default_rng(11)
        rng.standard_normal((4, 2, 6))
        x0 = rng.dirichlet(np.ones(6))
        residual = inst.stacked_A() @ x0 - inst.stacked_b()
        assert np.linalg.norm(residual) <= 10 * NOISE_REL * np.sqrt(8)

    def test_scale_applies_to_blocks(self):
        base = ed.generate_instance(5, 2, 2, 3, 2.0, 0.5, scale=1.0)
        scaled = ed.generate_instance(5, 2, 2, 3, 2.0, 0.5, scale=2.0)
        assert np.allclose(scaled.A, 2.0 * base.A, atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(small_instances())
    def test_generated_instances_are_valid(self, inst):
        dc = ed.data_constants(inst)
        assert dc.sigma_max_A > 0
        assert inst.q_exponent >= 1.0


class TestInstanceIO:
    def test_round_trip_exact(self, tmp_path, toy_p2):
        path = tmp_path / "inst.txt"
        ed.save_instance(toy_p2, path)
        loaded = ed.load_instance(path)
        assert np.array_equal(loaded.A, toy_p2.A)
        assert np.array_equal(loaded.b, toy_p2.b)
        assert ed.instance_checksum(loaded) == ed.instance_checksum(toy_p2)

    def test_round_trip_idempotent_bytes(self, tmp_path, toy_p1):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        ed.save_instance(toy_p1, p1)
        ed.save_instance(ed.load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_hand_written_fixture(self):
        inst = ed.load_instance(DATA_DIR / "tiny_instance.txt")
        assert (inst.m, inst.n, inst.d) == (2, 1, 2)
        assert inst.p == 2.0
        assert inst.theta == 0.25
        assert np.array_equal(inst.A[0, 0], [1.0, 0.0])
        assert np.array_equal(inst.A[1, 0], [0.0, 1.0])
        assert np.array_equal(inst.b.reshape(-1), [0.5, 0.5])

    def test_bad_header(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 1 2 2.0\n")
        with pytest.raises(ValueError, match="header"):
            ed.load_instance(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 1 2 2.0 0.5\n1.0,0.0,0.5\n")
        with pytest.raises(ValueError, match="data rows"):
            ed.load_instance(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 1 2 2.0 0.5\n1.0,0.0,0.5\n0.0,1.0\n")
        with pytest.raises(ValueError, match="values"):
            ed.load_instance(path)

    def test_malformed_number_reports_line(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("2 1 2 2.0 0.5\n1.0,0.0,0.5\n0.0,oops,0.5\n")
        with pytest.raises(ValueError, match=":3"):
            ed.load_instance(path)
