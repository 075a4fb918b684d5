"""Query-set generator: shapes, ℓ, σ and o controls (paper §6.1)."""
import pytest

from repro.graph.bruteforce import embeddings
from repro.graph.covering import covering_paths
from repro.streams.datasets import DATASETS
from repro.streams.querygen import generate_queries


@pytest.fixture(scope="module")
def snb_updates():
    return DATASETS["snb"](500, seed=0)


class TestBasics:
    def test_count_and_validity(self, snb_updates):
        qs = generate_queries(snb_updates, 40, seed=0)
        assert len(qs) == 40
        for q in qs:
            q.validate()  # raises on malformed patterns

    def test_deterministic(self, snb_updates):
        a = generate_queries(snb_updates, 20, seed=3)
        b = generate_queries(snb_updates, 20, seed=3)
        assert [(q.vertices, q.edges) for q in a] == [(q.vertices, q.edges) for q in b]

    def test_qids_sequential(self, snb_updates):
        qs = generate_queries(snb_updates, 10, seed=0)
        assert [q.qid for q in qs] == list(range(10))

    def test_all_three_shapes_occur(self, snb_updates):
        qs = generate_queries(snb_updates, 60, seed=0)
        assert {q.meta["shape"] for q in qs} == {"chain", "star", "cycle"}

    def test_at_least_one_literal_anchor(self, snb_updates):
        for q in generate_queries(snb_updates, 40, seed=1):
            assert any(t is not None for t in q.vertices)


class TestLengthControl:
    @pytest.mark.parametrize("avg_len", [3, 5, 7])
    def test_average_length(self, snb_updates, avg_len):
        qs = generate_queries(snb_updates, 50, avg_len=avg_len, seed=0)
        mean = sum(len(q.edges) for q in qs) / len(qs)
        assert abs(mean - avg_len) <= 1.0


class TestSelectivityControl:
    @pytest.mark.parametrize("sigma", [0.1, 0.25, 0.5])
    def test_satisfiable_flag_is_truthful(self, snb_updates, sigma):
        qs = generate_queries(snb_updates, 16, avg_len=4, selectivity=sigma, seed=2)
        for q in qs:
            assert bool(embeddings(q, snb_updates)) == q.meta["satisfiable"], q.qid

    def test_sigma_fraction_approx(self, snb_updates):
        qs = generate_queries(snb_updates, 200, selectivity=0.25, seed=0)
        frac = sum(q.meta["satisfiable"] for q in qs) / len(qs)
        assert 0.15 < frac < 0.35

    def test_phantom_literal_present_in_unsatisfiable(self, snb_updates):
        qs = generate_queries(snb_updates, 40, selectivity=0.0, seed=0)
        for q in qs:
            assert any(t and t.startswith("__phantom") for t in q.vertices)


class TestOverlapControl:
    @staticmethod
    def shared_prefix_fraction(qs):
        """Fraction of queries sharing a length>=2 covering-path sig prefix
        with another query — what TRIC's tries cluster on."""
        prefixes: dict[tuple, set[int]] = {}
        for q in qs:
            for p in covering_paths(q):
                chain = p.sig_chain(q)
                if len(chain) >= 2:
                    prefixes.setdefault(chain[:2], set()).add(q.qid)
        shared = {q for s in prefixes.values() if len(s) > 1 for q in s}
        return len(shared) / len(qs)

    def test_overlap_increases_sharing(self, snb_updates):
        low = generate_queries(snb_updates, 80, overlap=0.0, seed=0)
        high = generate_queries(snb_updates, 80, overlap=0.9, seed=0)
        assert self.shared_prefix_fraction(high) > self.shared_prefix_fraction(low)


class TestShapes:
    def test_cycle_queries_contain_cycle(self, snb_updates):
        qs = [
            q
            for q in generate_queries(snb_updates, 80, seed=0)
            if q.meta["shape"] == "cycle"
        ]
        assert qs, "no cycle queries generated"
        for q in qs:
            # detect a directed cycle over the pattern graph
            adj = {}
            for s, _, o in q.edges:
                adj.setdefault(s, []).append(o)
            state = {}

            def has_cycle(v):
                state[v] = 1
                for w in adj.get(v, ()):  # noqa: B023
                    if state.get(w) == 1 or (state.get(w) is None and has_cycle(w)):
                        return True
                state[v] = 2
                return False

            assert any(has_cycle(v) for v in list(adj) if v not in state)

    def test_star_queries_have_center(self, snb_updates):
        qs = [
            q
            for q in generate_queries(snb_updates, 80, seed=0)
            if q.meta["shape"] == "star"
        ]
        assert qs, "no star queries generated"
        for q in qs:
            deg = {}
            for s, _, o in q.edges:
                deg[s] = deg.get(s, 0) + 1
                deg[o] = deg.get(o, 0) + 1
            assert max(deg.values()) >= max(2, len(q.edges) - 1)

    @pytest.mark.parametrize("ds", ["nyc", "biogrid"])
    def test_other_datasets_generate_valid_queries(self, ds):
        updates = DATASETS[ds](400, seed=0)
        qs = generate_queries(updates, 20, avg_len=4, seed=0)
        assert len(qs) == 20
        for q in qs:
            q.validate()
        for q in qs:
            assert bool(embeddings(q, updates)) == q.meta["satisfiable"]
