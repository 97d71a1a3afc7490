"""Tests for normalization, the end-to-end selector, and theory module."""

import numpy as np
import pytest

from repro.core.normalization import normalize_one, normalize_scores
from repro.core.objective import PairwiseObjective, subset_mask
from repro.core.pipeline import (
    DistributedSelector,
    SelectorConfig,
    centralized_reference,
)
from repro.core.problem import SubsetProblem
from repro.core.theory import (
    approximation_factor,
    certify,
    guarantee_for_instance,
    instance_constants,
    success_probability,
)


class TestNormalization:
    def test_mapping_dict(self):
        scores = {"a": 10.0, "b": 5.0, "c": 20.0}
        out = normalize_scores(scores, centralized=20.0)
        assert out["c"] == pytest.approx(100.0)
        assert out["b"] == pytest.approx(0.0)
        assert out["a"] == pytest.approx(100 * 5 / 15)

    def test_mapping_iterable(self):
        out = normalize_scores([1.0, 2.0, 3.0], centralized=3.0)
        np.testing.assert_allclose(out, [0.0, 50.0, 100.0])

    def test_above_centralized_exceeds_100(self):
        out = normalize_scores({"x": 11.0, "lo": 0.0}, centralized=10.0)
        assert out["x"] > 100.0

    def test_degenerate_scale(self):
        out = normalize_scores({"a": 5.0}, centralized=5.0)
        assert out["a"] == 100.0

    def test_explicit_lowest(self):
        assert normalize_one(5.0, centralized=10.0, lowest=0.0) == 50.0

    def test_empty_iterable(self):
        assert normalize_scores([], centralized=1.0).size == 0


class TestSelectorConfig:
    def test_defaults(self):
        cfg = SelectorConfig()
        assert cfg.bounding is None and cfg.machines == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(bounding="magic"),
            dict(machines=0),
            dict(rounds=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SelectorConfig(**kwargs)


class TestDistributedSelector:
    def test_no_bounding_matches_distributed_greedy_size(self, tiny_problem):
        selector = DistributedSelector(
            tiny_problem, SelectorConfig(machines=4, rounds=4)
        )
        report = selector.select(60, seed=0)
        assert len(report) == 60
        assert report.bounding is None
        assert report.greedy is not None

    def test_exact_bounding_never_hurts(self, tiny_problem):
        k = tiny_problem.n // 10
        ref = centralized_reference(tiny_problem, k)
        with_bounding = DistributedSelector(
            tiny_problem, SelectorConfig(bounding="exact")
        ).select(k, seed=0)
        assert with_bounding.objective >= ref.objective - 1e-9

    def test_approximate_bounding_quality(self, tiny_problem):
        """Table 2 shape: approx bounding stays within ~10 % of centralized."""
        k = tiny_problem.n // 10
        ref = centralized_reference(tiny_problem, k)
        report = DistributedSelector(
            tiny_problem,
            SelectorConfig(
                bounding="approximate",
                sampling_fraction=0.3,
                machines=4,
                rounds=8,
                adaptive=True,
            ),
        ).select(k, seed=0)
        assert len(report) == k
        assert report.objective >= 0.9 * ref.objective

    def test_bounding_complete_skips_greedy(self, tiny_problem):
        k = (8 * tiny_problem.n) // 10
        report = DistributedSelector(
            tiny_problem,
            SelectorConfig(bounding="approximate", sampling_fraction=0.3),
        ).select(k, seed=0)
        assert len(report) == k
        if report.bounding.complete:
            assert report.greedy is None

    def test_deterministic(self, tiny_problem):
        cfg = SelectorConfig(
            bounding="approximate", sampling_fraction=0.5, machines=4, rounds=2
        )
        a = DistributedSelector(tiny_problem, cfg).select(50, seed=9)
        b = DistributedSelector(tiny_problem, cfg).select(50, seed=9)
        np.testing.assert_array_equal(a.selected, b.selected)

    def test_centralized_reference_is_sorted_greedy(self, tiny_problem):
        ref = centralized_reference(tiny_problem, 40)
        assert len(ref) == 40
        assert (np.diff(ref.selected) > 0).all()


class TestTheory:
    def test_p1_recovers_half(self):
        assert approximation_factor(gamma=1.0, p=1.0) == pytest.approx(0.5)

    def test_factor_improves_with_p(self):
        factors = [approximation_factor(2.0, p) for p in (0.3, 0.6, 0.9, 1.0)]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_factor_degrades_with_gamma(self):
        assert approximation_factor(5.0, 0.5) < approximation_factor(1.5, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            approximation_factor(0.5, 0.5)
        with pytest.raises(ValueError):
            approximation_factor(2.0, 0.0)
        with pytest.raises(ValueError):
            success_probability(10, 0.5, 5, 0.0, 1.0)

    def test_probability_p1_is_one(self):
        assert success_probability(10**9, 1.0, 10, 0.1, 0.9) == 1.0

    def test_probability_increases_with_degree(self):
        lo = success_probability(1000, 0.8, 10, 0.5, 1.0)
        hi = success_probability(1000, 0.8, 10_000, 0.5, 1.0)
        assert hi >= lo

    def test_probability_clamped_at_zero(self):
        assert success_probability(10**12, 0.5, 1, 0.01, 1.0) == 0.0

    def test_instance_constants(self, tiny_problem):
        consts = instance_constants(tiny_problem)
        assert consts.n == tiny_problem.n
        assert consts.kg == tiny_problem.graph.min_degree()
        assert 0 < consts.a <= consts.b
        assert consts.gamma >= 1.0

    def test_guarantee_for_instance(self, tiny_problem):
        factor, prob = guarantee_for_instance(tiny_problem, p=0.9)
        assert 0.0 <= factor <= 0.5
        assert 0.0 <= prob <= 1.0

    @pytest.mark.parametrize("bounding,kind", [
        (None, "modular"),
        ("approximate", "modular"),
        ("exact", "exact_bounding"),
    ])
    def test_selection_report_certifies_itself(
        self, tiny_problem, bounding, kind
    ):
        """Only exact bounding earns the tighter bound; the ratio is
        ``f(S)`` over the bound the report names."""
        report = DistributedSelector(
            tiny_problem,
            SelectorConfig(bounding=bounding, machines=4, rounds=2),
        ).select(40, seed=0)
        cert = report.certificate
        assert cert["kind"] == kind
        assert cert["upper_bound"] >= report.objective
        assert 0 < cert["certified_ratio"] <= 1.0
        assert cert["certified_ratio"] == pytest.approx(
            report.objective / cert["upper_bound"]
        )

    @pytest.mark.parametrize("bounding", [None, "exact"])
    def test_select_evaluates_its_selection_once(
        self, tiny_problem, bounding, monkeypatch
    ):
        """The report's objective and its certificate share one
        ``f(selected)``, and the certificate is the one ``certify``
        computes on its own."""
        evaluated = []
        value = PairwiseObjective.value

        def counting(self, subset):
            evaluated.append(subset_mask(subset, self.problem.n).copy())
            return value(self, subset)

        monkeypatch.setattr(PairwiseObjective, "value", counting)
        report = DistributedSelector(
            tiny_problem,
            SelectorConfig(bounding=bounding, machines=4, rounds=2),
        ).select(40, seed=0)
        selected = subset_mask(report.selected, tiny_problem.n)
        assert sum(np.array_equal(m, selected) for m in evaluated) == 1
        exact = report.bounding if bounding == "exact" else None
        assert report.certificate == certify(
            tiny_problem, report.selected, exact
        )

    def test_certificate_without_a_positive_bound(self, tiny_problem):
        """At alpha = 0 every f(S) <= 0 = the bound: a single point
        (f = 0) is certified optimal, a penalised pair gets no ratio."""
        g = tiny_problem.graph
        problem = SubsetProblem.with_alpha(tiny_problem.utilities, g, 0.0)
        assert certify(problem, [0])["certified_ratio"] == 1.0
        dense = int(np.argmax(np.diff(g.indptr)))
        pair = [dense, int(g.neighbors(dense)[0][0])]
        cert = certify(problem, pair)
        assert cert == {
            "upper_bound": 0.0, "certified_ratio": None, "kind": "modular"
        }
