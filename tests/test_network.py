import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrodual as ed
from entrodual.network import (ZERO_EIG_REL, NeighbourSlots, _measured_spectrum,
                                closed_form_spectrum, slot_runs)

from oracles import (connected, dense_matrix, erdos_renyi_edges, laplacian, save_topology,
                     spectral_constants, topology_fault)
from reference_values import RING4_EIGS
from strategies import connected_topologies, edge_lists, relabelled_generator_topologies


class TestTopologyValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ed.Topology(3, ((0, 0), (0, 1), (1, 2)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ed.Topology(3, ((0, 1), (0, 1), (1, 2)))

    def test_unnormalized_edge_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            ed.Topology(3, ((1, 0), (1, 2)))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            ed.Topology(3, ((0, 1), (1, 3)))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            ed.Topology(2, ())
        with pytest.raises(ValueError, match="disconnected"):
            ed.Topology(4, ((0, 1), (2, 3)))

    def test_two_triangles_are_disconnected(self):
        # e = m = 6 and every degree 2, as on a ring: only connectivity tells
        with pytest.raises(ValueError, match="disconnected"):
            ed.Topology(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))

    def test_from_edges_normalizes_and_dedups(self):
        top = ed.Topology.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert top.edges.tolist() == [[0, 1], [1, 2]]

    def test_single_node(self):
        top = ed.Topology(1, ())
        assert top.m == 1
        assert top.edges.shape == (0, 2)

    def test_edges_are_one_read_only_array(self):
        given = np.array([[0, 1], [1, 2]])
        top = ed.Topology(3, given)
        assert top.edges.dtype == np.intp and top.edges.shape == (2, 2)
        for array in (top.edges, top.degrees):
            with pytest.raises(ValueError):
                array[0] = 7
        # the caller's array is copied, not frozen
        given[0, 0] = 2
        assert top.edges.tolist() == [[0, 1], [1, 2]]
        assert top.degrees.tolist() == [1, 2, 1]

    def test_equality_is_identity(self):
        a, b = ed.topology_ring(4), ed.topology_ring(4)
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1

    def test_edges_must_be_pairs(self):
        with pytest.raises(ValueError):
            ed.Topology(3, (0, 1, 2))

    def test_endpoints_must_be_machine_integers(self):
        # a float is not truncated, an integer too large for intp does not overflow
        for edges in (((0, 1.5), (1, 2)), ((0, 1), (1, 2**70))):
            for make in (ed.Topology, ed.Topology.from_edges):
                with pytest.raises(ValueError, match="machine integers"):
                    make(3, edges)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_checks_match_the_oracle(self, case):
        # the same verdict and message as the per-edge loop and the BFS
        m, edges = case
        fault = topology_fault(m, edges)
        if fault is None:
            assert ed.Topology(m, tuple(edges)).edges.tolist() == [list(e) for e in edges]
        else:
            with pytest.raises(ValueError) as info:
                ed.Topology(m, tuple(edges))
            assert str(info.value) == fault

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_from_edges_matches_the_oracle(self, case):
        m, edges = case
        normalized = sorted({(min(i, j), max(i, j)) for i, j in edges})
        fault = topology_fault(m, normalized)
        if fault is None:
            top = ed.Topology.from_edges(m, edges)
            assert top.edges.tolist() == [list(e) for e in normalized]
        else:
            with pytest.raises(ValueError) as info:
                ed.Topology.from_edges(m, edges)
            assert str(info.value) == fault

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_from_edges_matches_the_row_unique(self, data):
        # pairs far out of range, whose keys i * m + j alias valid pairs,
        # self-loops and repeats: the same edges and the same message as
        # deduplicating whole rows
        m = data.draw(st.integers(min_value=1, max_value=8))
        lo, hi = data.draw(st.sampled_from([(0, m - 1), (-2 * m - 2, 2 * m + 2)]))
        ends = st.integers(min_value=lo, max_value=hi)
        edges = data.draw(st.lists(st.tuples(ends, ends), max_size=3 * m))
        rows = np.unique(np.sort(np.array(edges, dtype=np.intp).reshape(-1, 2)), axis=0)
        try:
            expect = ed.Topology(m, rows).edges.tolist()
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ed.Topology.from_edges(m, edges)
            assert str(info.value) == str(exc)
        else:
            assert ed.Topology.from_edges(m, edges).edges.tolist() == expect

    def test_max_degree_is_the_largest_degree(self):
        for top in (ed.Topology(1, ()), ed.topology_path(2), ed.topology_ring(9),
                    ed.topology_star(7), ed.topology_erdos_renyi(40, 0.3, 0)):
            assert type(top.max_degree) is int
            assert top.max_degree == top.degrees.max(initial=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            top.max_degree = 0

    def test_connectivity_matches_the_bfs_on_relabelled_graphs(self):
        # G(m, p) below, near and above the connectivity threshold log(m) / m,
        # relabelled and shuffled
        rng = np.random.default_rng(11)
        verdicts = set()
        for m in (2, 3, 17, 64, 300, 1000):
            pairs = np.array(np.triu_indices(m, 1)).T
            for p in (1.0 / m, math.log(m) / m, 3.0 * math.log(m) / m):
                edges = pairs[rng.random(len(pairs)) < p]
                edges = [tuple(e) for e in np.sort(rng.permutation(m)[edges], axis=1).tolist()]
                rng.shuffle(edges)
                verdicts.add(connected(m, edges))
                if connected(m, edges):
                    assert ed.Topology(m, edges).m == m
                else:
                    with pytest.raises(ValueError, match="disconnected"):
                        ed.Topology(m, edges)
        assert verdicts == {True, False}


class TestGenerators:
    def test_path_edges(self):
        assert ed.topology_path(4).edges.tolist() == [[0, 1], [1, 2], [2, 3]]

    def test_ring_edges(self):
        assert ed.topology_ring(4).edges.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_ring_of_two_degenerates_to_path(self):
        assert ed.topology_ring(2).edges.tolist() == ed.topology_path(2).edges.tolist()

    def test_complete_edge_count(self):
        assert len(ed.topology_complete(6).edges) == 15

    def test_star_edges(self):
        assert ed.topology_star(4).edges.tolist() == [[0, 1], [0, 2], [0, 3]]

    def test_erdos_renyi_deterministic(self):
        a = ed.topology_erdos_renyi(6, 0.7, 3)
        b = ed.topology_erdos_renyi(6, 0.7, 3)
        assert a.edges.tolist() == b.edges.tolist()

    @pytest.mark.parametrize("m,p,seed", [(6, 0.7, 3), (50, 0.2, 1), (300, 0.05, 9),
                                          (1024, 0.01, 7)])
    def test_erdos_renyi_draws_as_one_draw_per_pair(self, m, p, seed):
        expect = [list(e) for e in erdos_renyi_edges(m, p, seed)]
        assert ed.topology_erdos_renyi(m, p, seed).edges.tolist() == expect

    def test_erdos_renyi_full_probability_is_complete(self):
        assert (ed.topology_erdos_renyi(5, 1.0, 0).edges.tolist()
                == ed.topology_complete(5).edges.tolist())

    def test_erdos_renyi_disconnected_draw_raises(self):
        with pytest.raises(ValueError, match="disconnected; raise p or pick another seed"):
            ed.topology_erdos_renyi(5, 0.0, 0)

    def test_erdos_renyi_keeps_the_node_count_message(self):
        with pytest.raises(ValueError, match="^node count must be at least 1$"):
            ed.topology_erdos_renyi(0, 0.5, 0)

    def test_erdos_renyi_proves_connectivity_once(self, monkeypatch):
        calls = []
        connected_ = ed.network._connected
        monkeypatch.setattr(ed.network, "_connected",
                            lambda *args: calls.append(1) or connected_(*args))
        ed.topology_erdos_renyi(6, 0.7, 3)
        with pytest.raises(ValueError, match="raise p"):
            ed.topology_erdos_renyi(5, 0.0, 0)
        assert len(calls) == 2

    def test_erdos_renyi_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            ed.topology_erdos_renyi(5, 1.5, 0)

    def test_make_topology_names(self):
        assert ed.make_topology("ring", 4).edges.tolist() == ed.topology_ring(4).edges.tolist()
        assert ed.make_topology("path", 3).edges.tolist() == ed.topology_path(3).edges.tolist()
        assert (ed.make_topology("complete", 4).edges.tolist()
                == ed.topology_complete(4).edges.tolist())
        assert ed.make_topology("star", 5).edges.tolist() == ed.topology_star(5).edges.tolist()

    def test_make_topology_erdos_renyi_args(self):
        top = ed.make_topology("erdos-renyi 0.7 3", 6)
        assert top.edges.tolist() == ed.topology_erdos_renyi(6, 0.7, 3).edges.tolist()

    def test_make_topology_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown topology spec"):
            ed.make_topology("torus", 4)
        with pytest.raises(ValueError, match="unknown topology spec"):
            ed.make_topology("ring 3", 4)


class TestSpectrum:
    def test_ring4_spectrum(self, ring4):
        eigs = np.linalg.eigvalsh(dense_matrix(ring4))
        assert np.allclose(eigs, RING4_EIGS, atol=1e-12)
        assert ring4.lambda_max == pytest.approx(4.0, abs=1e-12)
        assert ring4.lambda_min_plus == pytest.approx(2.0, abs=1e-12)
        assert ring4.chi == pytest.approx(2.0, abs=1e-12)

    def test_path2_matrix(self):
        g = ed.build_laplacian(ed.topology_path(2))
        assert np.array_equal(dense_matrix(g), [[1.0, -1.0], [-1.0, 1.0]])
        assert g.chi == pytest.approx(1.0)

    def test_complete_graph_constants(self):
        g = ed.build_laplacian(ed.topology_complete(5))
        assert g.lambda_max == pytest.approx(5.0, abs=1e-12)
        assert g.chi == pytest.approx(1.0, abs=1e-12)

    def test_star_graph_condition_number(self):
        g = ed.build_laplacian(ed.topology_star(6))
        assert g.lambda_max == pytest.approx(6.0, abs=1e-12)
        assert g.lambda_min_plus == pytest.approx(1.0, abs=1e-12)
        assert g.chi == pytest.approx(6.0, abs=1e-12)

    def test_spectral_constants_match_eigvalsh(self, ring4):
        lam_max, lam_min_plus = spectral_constants(dense_matrix(ring4))
        assert lam_max == pytest.approx(4.0, abs=1e-12)
        assert lam_min_plus == pytest.approx(2.0, abs=1e-12)

    def test_spectral_constants_need_a_positive_eigenvalue(self):
        with pytest.raises(ValueError, match="no positive eigenvalue"):
            spectral_constants(np.zeros((3, 3)))

    def test_single_node_has_no_gossip_matrix(self):
        message = "a gossip matrix needs at least 2 nodes, got m = 1"
        with pytest.raises(ValueError, match=message):
            ed.build_laplacian(ed.Topology(1, ()))
        with pytest.raises(ValueError, match=message):
            _measured_spectrum(np.array([[0.0]]))

    def test_closed_forms_make_no_eigensolve(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("called on a graph with a closed-form spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        for spec in ("ring", "path", "star", "complete"):
            for m in range(2, 41):
                # all of these take the dense form, which is formed as the operator
                g = ed.build_laplacian(ed.make_topology(spec, m))
                assert type(g.operator) is np.ndarray
        # the slot form does not form the dense W at all
        monkeypatch.setattr(ed.network, "laplacian_matrix", forbidden)
        for spec in ("ring", "path"):
            assert isinstance(ed.build_laplacian(ed.make_topology(spec, 512)).operator,
                              NeighbourSlots)

    def test_other_graphs_make_one_eigensolve(self, monkeypatch, tmp_path):
        # a ring with a chord (e = m + 1) and a tree that is neither path nor star
        chorded = ed.Topology.from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        spider = ed.Topology(5, ((0, 1), (0, 2), (0, 3), (3, 4)))
        graphs = [ed.make_topology(ER_SPECS[64], 64)]
        for k, top in enumerate((chorded, spider)):
            save_topology(top, tmp_path / f"top{k}.txt")
            graphs.append(ed.load_topology(tmp_path / f"top{k}.txt"))
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or real(M))
        for top in graphs:
            calls.clear()
            assert closed_form_spectrum(top) is None
            g = ed.build_laplacian(top)
            assert calls == [(top.m, top.m)]
            assert (g.lambda_max, g.lambda_min_plus) == spectral_constants(laplacian(top))

    @pytest.mark.parametrize("spec", ["ring", "path", "star", "complete"])
    def test_gossip_matrix_measures_its_own_spectrum(self, spec):
        for m in [*range(2, 41), 64, 300, 512]:
            top = ed.make_topology(spec, m)
            g = ed.GossipMatrix(top)
            evals = np.linalg.eigvalsh(laplacian(top))
            chi = evals[-1] / evals[1]
            assert g.lambda_max == pytest.approx(evals[-1], rel=1e-12, abs=0.0)
            # eigvalsh errs by a few ulps of lambda_max on every eigenvalue, which
            # is chi times more relative to lambda_min_plus: 1.5e-11 on path300,
            # where the closed form keeps its own ulps (the test below)
            assert g.lambda_min_plus == pytest.approx(evals[1], rel=1e-12 * chi, abs=0.0)
            assert g.chi == pytest.approx(chi, rel=1e-12 * chi, abs=0.0)

    def test_closed_forms_keep_relative_accuracy(self):
        # 4 sin^2 keeps every digit where 2 - 2 cos cancels (9e-15 relative on
        # ring64's lambda_min_plus, 5e-13 on ring512's); the reference is the
        # same form at 40 digits
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for m in (64, 300, 512, 2048):
            for spec, n, top_j in (("ring", m, m // 2), ("path", 2 * m, m - 1)):
                g = ed.build_laplacian(ed.make_topology(spec, m))
                for value, j in ((g.lambda_max, top_j), (g.lambda_min_plus, 1)):
                    assert value == pytest.approx(
                        float(4 * mpmath.sin(mpmath.pi * j / n) ** 2), rel=2e-15, abs=0.0)

    def test_exact_closed_forms(self):
        # m = 2 is complete, m = 3 the star and the path; an even ring's top is 4
        for top, spectrum in ((ed.topology_path(2), (2.0, 2.0)),
                              (ed.topology_path(3), (3.0, 1.0)),
                              (ed.topology_ring(3), (3.0, 3.0)),
                              (ed.topology_star(7), (7.0, 1.0)),
                              (ed.topology_complete(9), (9.0, 9.0))):
            assert closed_form_spectrum(top) == spectrum
        for m in (4, 6, 64, 512):
            assert closed_form_spectrum(ed.topology_ring(m))[0] == 4.0
        assert closed_form_spectrum(ed.Topology(1, ())) is None

    def test_relabelled_ring_from_a_file(self, monkeypatch, tmp_path):
        m = 512
        label = np.random.default_rng(5).permutation(m)
        path = tmp_path / "ring.txt"
        path.write_text(f"{m}\n" + "".join(f"{label[i]} {label[(i + 1) % m]}\n"
                                            for i in range(m)))
        loaded = ed.load_topology(path)
        assert loaded.edges.tolist() != ed.topology_ring(m).edges.tolist()
        generated = ed.build_laplacian(ed.topology_ring(m))

        def forbidden(*args):
            raise AssertionError("a relabelled ring has a closed-form spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        monkeypatch.setattr(ed.network, "laplacian_matrix", forbidden)
        g = ed.build_laplacian(loaded)
        assert isinstance(g.operator, NeighbourSlots)
        assert (g.lambda_max, g.lambda_min_plus) == (generated.lambda_max,
                                                     generated.lambda_min_plus)

    @settings(max_examples=60, deadline=None)
    @given(connected_topologies())
    def test_spectrum_of_any_graph_matches_the_oracle(self, top):
        g = ed.build_laplacian(top)
        lam_max, lam_min_plus = spectral_constants(laplacian(top))
        assert abs(g.lambda_max - lam_max) <= 1e-10 * lam_max
        assert abs(g.lambda_min_plus - lam_min_plus) <= 1e-10 * lam_max

    @settings(max_examples=60, deadline=None)
    @given(relabelled_generator_topologies())
    def test_relabelled_generators_take_the_closed_form(self, top):
        spectrum = closed_form_spectrum(top)
        assert spectrum is not None
        lam_max, lam_min_plus = spectral_constants(laplacian(top))
        assert abs(spectrum[0] - lam_max) <= 1e-10 * lam_max
        assert abs(spectrum[1] - lam_min_plus) <= 1e-10 * lam_max

    @settings(max_examples=40, deadline=None)
    @given(connected_topologies())
    def test_laplacian_properties(self, top):
        g = ed.build_laplacian(top)
        W = dense_matrix(g)
        m = top.m
        # symmetric, zero row sums, degree diagonal
        assert np.array_equal(W, W.T)
        assert np.allclose(W @ np.ones(m), 0.0, atol=1e-12)
        degrees = np.zeros(m)
        for i, j in top.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert np.array_equal(np.diag(W), degrees)
        eigs = np.linalg.eigvalsh(W)
        assert eigs[0] >= -1e-10 * max(1.0, g.lambda_max)
        # kernel is exactly the consensus line
        assert int(np.sum(eigs <= ZERO_EIG_REL * g.lambda_max)) == 1
        assert g.chi >= 1.0

    def test_gossip_matrix_takes_no_spectrum(self):
        top = ed.topology_ring(4)
        with pytest.raises(TypeError):
            ed.GossipMatrix(top, 4.0, 2.0, 2.0)
        for key in ("lambda_max", "lambda_min_plus", "chi"):
            with pytest.raises(TypeError):
                ed.GossipMatrix(top, **{key: 1.0})
        assert list(inspect.signature(ed.GossipMatrix).parameters) == ["topology"]


class TestValidateSpectrum:
    """The one guard of a measured spectrum: lambda_min_plus must lie within
    the eigensolver's resolution.  PSD, zero row sums and the one-dimensional
    kernel hold for every Topology's Laplacian and are not re-checked."""

    def test_rejects_enlarged_kernel(self):
        # block-diagonal Laplacian of two components, presented as one matrix
        blk = np.array([[1.0, -1.0], [-1.0, 1.0]])
        W = np.block([[blk, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])
        with pytest.raises(ValueError, match="chi is beyond the eigensolver's resolution"):
            _measured_spectrum(W)

    def test_unresolved_chi_is_not_called_disconnected(self, monkeypatch):
        # a connected graph whose lambda_min_plus the eigensolver cannot tell from 0
        top = ed.make_topology(ER_SPECS[4], 4)
        assert closed_form_spectrum(top) is None
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda W: np.array([0.0, 1e-12, 3.0, 4.0]))
        with pytest.raises(ValueError, match="chi is beyond the eigensolver's resolution") as info:
            ed.build_laplacian(top)
        assert "connected" not in str(info.value)

    def test_one_eigensolve_on_a_measured_graph(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda W: calls.append(1) or eigvalsh(W))
        g = ed.build_laplacian(ed.make_topology(ER_SPECS[64], 64))
        assert len(calls) == 1
        assert (g.lambda_max, g.lambda_min_plus) == spectral_constants(dense_matrix(g))


class TestTopologyIO:
    def test_round_trip(self, tmp_path):
        top = ed.topology_erdos_renyi(6, 0.6, 1)
        path = tmp_path / "top.txt"
        save_topology(top, path)
        loaded = ed.load_topology(path)
        assert loaded.m == top.m
        assert loaded.edges.tolist() == top.edges.tolist()

    def test_format_is_plain_edge_list(self, tmp_path):
        path = tmp_path / "top.txt"
        save_topology(ed.topology_path(3), path)
        assert path.read_text() == "3\n0 1\n1 2\n"

    def test_load_normalizes_reversed_edges(self, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text("3\n1 0\n2 1\n")
        assert ed.load_topology(path).edges.tolist() == [[0, 1], [1, 2]]

    def test_load_reports_bad_line(self, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text("3\n0 1\n1 2 7\n")
        with pytest.raises(ValueError, match=":3"):
            ed.load_topology(path)

    def test_load_reports_bad_count(self, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text("three\n0 1\n")
        with pytest.raises(ValueError, match="node count"):
            ed.load_topology(path)

    def test_load_reports_an_endpoint_too_large_for_an_integer(self, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text(f"3\n0 1\n1 {2**70}\n")
        with pytest.raises(ValueError, match="top.txt"):
            ed.load_topology(path)

    def test_load_empty_file(self, tmp_path):
        path = tmp_path / "top.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ed.load_topology(path)


# one Erdos-Renyi edge probability per size, each connected at seed 0
ER_SPECS = {4: "erdos-renyi 0.7 0", 64: "erdos-renyi 0.1 0",
            256: "erdos-renyi 0.03 0", 512: "erdos-renyi 0.02 0"}
SLOT_RTOL = 1e-14


def slots_of(spec, m):
    """The neighbour slots of a generated graph, whatever the rule picks for it."""
    return NeighbourSlots.of(ed.make_topology(spec, m))


def assert_same_product(op, W, X):
    dense = W @ X
    out = op @ X
    assert out.shape == dense.shape
    assert np.abs(out - dense).max() <= SLOT_RTOL * np.abs(dense).max()


@pytest.fixture(scope="module")
def graphs():
    cache = {}

    def get(spec, m):
        if (spec, m) not in cache:
            cache[spec, m] = ed.build_laplacian(ed.make_topology(spec, m))
        return cache[spec, m]

    return get


@pytest.fixture(scope="module")
def laplacians():
    cache = {}

    def get(spec, m):
        if (spec, m) not in cache:
            cache[spec, m] = laplacian(ed.make_topology(spec, m))
        return cache[spec, m]

    return get


class TestNeighbourSlots:
    @pytest.mark.parametrize("m", [4, 64, 256, 512])
    @pytest.mark.parametrize("spec", ["ring", "path", "star", "complete", "erdos-renyi"])
    def test_product_matches_dense(self, spec, m, graphs, laplacians):
        spec = ER_SPECS[m] if spec == "erdos-renyi" else spec
        W = laplacians(spec, m)
        rng = np.random.default_rng(m)
        for X in (rng.standard_normal(m), rng.standard_normal((m, 1)),
                  rng.standard_normal((m, 8))):
            for op in (slots_of(spec, m), graphs(spec, m).operator):
                assert_same_product(op, W, X)

    @pytest.mark.parametrize("m", [64, 512])
    def test_misshaped_operand_raises_on_both_forms(self, m, graphs):
        # ring64 takes the dense form, ring512 the slots
        op = graphs("ring", m).operator
        assert isinstance(op, NeighbourSlots) == (m == 512)
        rng = np.random.default_rng(3)
        for X in (rng.standard_normal((8, m)), rng.standard_normal(m * 8),
                  rng.standard_normal((m, 2, 4)), rng.standard_normal(m - 1)):
            with pytest.raises(ValueError):
                op @ X

    @pytest.mark.parametrize("spec,m", [("path", 300), ("star", 40), ("ring", 256),
                                        ("erdos-renyi 0.03 0", 256)])
    def test_padded_rows(self, spec, m, graphs, laplacians):
        # every graph but the ring pads some rows
        W, g, op = laplacians(spec, m), graphs(spec, m), slots_of(spec, m)
        assert (op.weights[1:] == 0.0).any() == (spec != "ring")
        rng = np.random.default_rng(m + 2)
        # 1-D and two widths through the same operators, in turn
        for X in (rng.standard_normal(m), rng.standard_normal((m, 8)),
                  rng.standard_normal((m, 3)), rng.standard_normal((m, 8))):
            dense = W @ X
            for out in (op @ X, g.operator @ X):
                assert np.abs(out - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("spec,m", [("ring", 512), ("path", 300), ("star", 40),
                                        ("erdos-renyi 0.03 0", 256)])
    def test_rounds_as_the_term_by_term_sum(self, spec, m):
        op = slots_of(spec, m)
        rng = np.random.default_rng(m + 3)
        for X in (rng.standard_normal((m, 1)), rng.standard_normal((m, 8))):
            expect = op.weights[0][:, None] * X[op.index[0]]
            for t in range(1, op.index.shape[0]):
                expect = expect + op.weights[t][:, None] * X[op.index[t]]
            np.testing.assert_array_equal(op @ X, expect)

    @settings(max_examples=40, deadline=None)
    @given(connected_topologies())
    def test_slots_and_matrix_of_any_graph_are_its_laplacian(self, top):
        # the rule keeps these small graphs dense, so the slots are built directly
        W = laplacian(top)
        assert ed.network.laplacian_matrix(top).tobytes() == W.tobytes()
        np.testing.assert_array_equal(NeighbourSlots.of(top) @ np.eye(top.m), W)

    def test_weights_are_read_only(self, laplacians):
        W = laplacians("path", 512)
        op = slots_of("path", 512)
        assert op.weights.shape == op.index.shape == (3, 512)
        np.testing.assert_array_equal(op.index[0], np.arange(512))
        np.testing.assert_array_equal(op.weights[0], np.diag(W))
        for array in (op.index, op.weights):
            with pytest.raises(ValueError):
                array[0, 0] = 7

    def test_padding_points_at_the_row_itself(self, graphs):
        # the path's end nodes have one neighbour, so their second slot pads
        op = graphs("path", 512).operator
        assert op.index.shape == (3, 512)
        assert op.index[2, 0] == 0 and op.weights[2, 0] == 0.0
        assert op.index[2, 511] == 511 and op.weights[2, 511] == 0.0


def term_by_term(op, X):
    """sum_t weights[t] * X[index[t]], added to 0 in slot order."""
    X2 = X.reshape(op.index.shape[1], -1)
    expect = np.zeros(X2.shape)
    for t in range(op.index.shape[0]):
        expect = expect + op.weights[t][:, None] * X2[op.index[t]]
    return expect.reshape(X.shape)


def assert_same_bits(out, expect):
    # nan in the same places, every other entry bit for bit (the sign of 0 too)
    assert out.shape == expect.shape
    nan = np.isnan(expect)
    np.testing.assert_array_equal(np.isnan(out), nan)
    assert out[~nan].tobytes() == expect[~nan].tobytes()


def both_forms(op):
    """The gather and the slice form of the same slots, whatever the rule picks."""
    return (dataclasses.replace(op, runs=None),
            dataclasses.replace(op, runs=slot_runs(op.index, op.weights)))


class TestSliceRuns:
    OPERAND_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e-310, 3e307])

    def operands(self, m, rng):
        yield rng.standard_normal(m)
        yield rng.standard_normal((m, 8))
        yield np.full((m, 3), -0.0)
        yield rng.choice(self.OPERAND_VALUES, size=m)
        yield rng.choice(self.OPERAND_VALUES, size=(m, 5))

    @pytest.mark.parametrize("make,sizes", [(ed.topology_ring, range(3, 601)),
                                            (ed.topology_path, range(2, 601))])
    def test_both_forms_are_the_term_by_term_sum(self, make, sizes):
        # the path's end nodes pad their second slot; all -0.0 sums to +0.0
        rng = np.random.default_rng(17)
        with np.errstate(all="ignore"):
            for m in sizes:
                op = NeighbourSlots.of(make(m))
                for X in self.operands(m, rng):
                    expect = term_by_term(op, X)
                    for form in both_forms(op):
                        assert_same_bits(form @ X, expect)

    def test_a_ring_written_in_order_takes_the_slices(self, tmp_path):
        path = tmp_path / "ring.txt"
        save_topology(ed.topology_ring(512), path)
        g = ed.build_laplacian(ed.load_topology(path))
        op = g.operator
        assert isinstance(op, NeighbourSlots) and len(op.runs) == 7
        rng = np.random.default_rng(4)
        with np.errstate(all="ignore"):
            for X in self.operands(512, rng):
                assert_same_bits(op @ X, term_by_term(op, X))

    def test_ring_and_path_runs(self):
        # ring: slot 0 is one run; each neighbour slot wraps at both ends
        m = 512
        runs = NeighbourSlots.of(ed.topology_ring(m)).runs
        assert runs == ((slice(0, m), slice(0, m), 2.0),
                        (slice(0, 1), slice(1, 2), -1.0),
                        (slice(1, m - 1), slice(0, m - 2), -1.0),
                        (slice(m - 1, m), slice(0, 1), -1.0),
                        (slice(0, 1), slice(m - 1, m), -1.0),
                        (slice(1, m - 1), slice(2, m), -1.0),
                        (slice(m - 1, m), slice(m - 2, m - 1), -1.0))
        # path: the end nodes have degree 1 and pad their second slot
        m = 300
        runs = NeighbourSlots.of(ed.topology_path(m)).runs
        assert [(r.start, r.stop, s.start - r.start, w) for r, s, w in runs] == [
            (0, 1, 0, 1.0), (1, m - 1, 0, 2.0), (m - 1, m, 0, 1.0),
            (0, 1, 1, -1.0), (1, m, -1, -1.0),
            (0, 1, 0, 0.0), (1, m - 1, 1, -1.0), (m - 1, m, 0, 0.0)]

    def test_the_run_rule(self):
        # slices when runs * SLOT_CROSSOVER <= (k + 1) * m
        label = np.random.default_rng(0).permutation(512)
        relabelled = ed.Topology.from_edges(512, label[ed.topology_ring(512).edges])
        picks = {"ring512": ed.topology_ring(512), "path300": ed.topology_path(300)}
        keeps = {"relabelled ring512": relabelled,
                 "erdos-renyi 0.02 0 at 512": ed.make_topology("erdos-renyi 0.02 0", 512),
                 "star40": ed.topology_star(40)}
        for name, top in {**picks, **keeps}.items():
            op = NeighbourSlots.of(top)
            runs = len(slot_runs(op.index, op.weights))
            assert (op.runs is not None) == (name in picks), name
            assert (op.runs is not None) == (
                runs * ed.network.SLOT_CROSSOVER <= op.index.size), name
        assert ed.build_laplacian(relabelled).operator.runs is None

    def test_runs_are_counted_before_they_are_built(self):
        op = NeighbourSlots.of(ed.topology_star(40))
        assert slot_runs(op.index, op.weights, most=117) is None
        assert len(slot_runs(op.index, op.weights, most=118)) == 118


class TestApplyRule:
    @pytest.mark.parametrize("spec,m", [("ring", 4), ("ring", 64), ("complete", 64),
                                        (ER_SPECS[512], 512)])
    def test_dense(self, spec, m, graphs, laplacians):
        g = graphs(spec, m)
        assert type(g.operator) is np.ndarray
        assert np.array_equal(g.operator, laplacians(spec, m))
        assert ed.network.gossip_operator(g) is g.operator

    @pytest.mark.parametrize("spec", ["ring", "path"])
    def test_slots(self, spec, graphs):
        g = graphs(spec, 512)
        assert isinstance(g.operator, NeighbourSlots)
        assert ed.network.gossip_operator(g) is g.operator

    @pytest.mark.parametrize("spec,m,slots", [("path", 512, True), ("star", 512, False),
                                              (ER_SPECS[512], 512, False)])
    def test_takes_slots_is_the_operator_rule(self, spec, m, slots, graphs):
        # the star's hub has degree m - 1, so it stays dense at any m
        assert ed.network.takes_slots(ed.make_topology(spec, m)) is slots
        assert isinstance(graphs(spec, m).operator, NeighbourSlots) is slots

    def test_the_rule_reads_the_row_counts(self, graphs):
        # k = 2 for a ring: slots from m = 3 * SLOT_CROSSOVER on
        m = 3 * ed.network.SLOT_CROSSOVER
        assert isinstance(graphs("ring", m).operator, NeighbourSlots)
        assert type(graphs("ring", m - 1).operator) is np.ndarray
        assert ed.network.takes_slots(ed.topology_ring(m))
        assert not ed.network.takes_slots(ed.topology_ring(m - 1))


class TestGossipOperator:
    def test_slot_form_matches_dense(self, graphs, laplacians):
        g = graphs("ring", 512)
        X = np.random.default_rng(2).standard_normal((512, 3))
        assert_same_product(ed.network.gossip_operator(g), laplacians("ring", 512), X)

    def test_annihilates_consensual_stack(self, graphs):
        # W 1 = 0 on the dense form (ring4) and on the slot form (ring512)
        for m in (4, 512):
            X = np.tile(np.array([0.2, 0.3, 0.5]), (m, 1))
            out = ed.network.gossip_operator(graphs("ring", m)) @ X
            assert np.abs(out).max() <= 1e-12


class TestGossipMatrixObject:
    def test_matrix_is_read_only(self, ring4):
        with pytest.raises(ValueError):
            ring4.operator[0, 0] = 7.0

    def test_slots_are_read_only(self, graphs):
        g = graphs("ring", 512)
        op = g.operator
        for array in (op.index, op.weights):
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.index = op.index.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.operator = op

    def test_equality_is_identity_and_hashes(self):
        top = ed.topology_ring(4)
        g, h = ed.build_laplacian(top), ed.build_laplacian(top)
        assert g == g and g != h
        assert {g: 1, h: 2}[g] == 1


class TestDenseFromSlots:
    @pytest.mark.parametrize("spec,m", [("ring", 512), ("path", 512), ("path", 300)])
    def test_round_trip_is_bit_for_bit(self, spec, m):
        # the path's end nodes pad their second slot with themselves, weight 0
        top = ed.make_topology(spec, m)
        W = laplacian(top)
        g = ed.build_laplacian(top)
        assert isinstance(g.operator, NeighbourSlots)
        dense = dense_matrix(g)
        assert dense.tobytes() == W.tobytes()
        with pytest.raises(ValueError):
            dense[0, 0] = 7.0

    def test_slot_form_does_not_keep_the_dense_matrix(self):
        m, top = 512, ed.topology_ring(512)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [ed.build_laplacian(top) for _ in range(5)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(isinstance(g.operator, NeighbourSlots) for g in kept)
        assert held < m * m * 8

    def test_ring4096_peaks_at_o_mk(self):
        # the dense W of a 4096-node ring would take m^2 * 8 bytes = 128 MiB
        tracemalloc.start()
        try:
            g = ed.build_laplacian(ed.make_topology("ring", 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(g.operator, NeighbourSlots)
        assert peak < 8 * 2**20
