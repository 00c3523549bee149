"""Shared quantile helpers and the labeled-metric catalog contract."""

import ast
import statistics
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs.metrics import (
    LABEL_CATALOG,
    MetricsRegistry,
    is_time_metric,
    labeled_name,
    percentile,
    percentile_summary,
    quantile,
)

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

floats = st.floats(
    min_value=-1e9, max_value=1e9,
    allow_nan=False, allow_infinity=False,
)


class TestQuantile:
    def test_empty_is_zero(self):
        assert quantile([], 0.5) == 0.0
        assert percentile([], 95.0) == 0.0

    def test_single_value(self):
        assert quantile([7.0], 0.5) == 7.0
        assert quantile([7.0], 0.999) == 7.0

    def test_endpoints_are_min_and_max(self):
        vals = [1.0, 2.0, 10.0]
        assert quantile(vals, 0.0) == 1.0
        assert quantile(vals, 1.0) == 10.0

    def test_median_interpolates(self):
        assert quantile([0.0, 10.0], 0.5) == pytest.approx(5.0)

    @given(st.lists(floats, min_size=2, max_size=200))
    def test_matches_statistics_inclusive(self, values):
        """The helper is the ``method="inclusive"`` cut-point rule."""
        data = sorted(values)
        cuts = statistics.quantiles(data, n=100, method="inclusive")
        for pct in (50, 95, 99):
            expected = cuts[pct - 1]
            got = percentile(data, float(pct))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(st.lists(floats, min_size=1, max_size=100))
    def test_summary_is_monotone_and_bounded(self, values):
        data = sorted(values)
        summary = percentile_summary(data)
        assert set(summary) == {"p50", "p95", "p99", "p999"}
        assert summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["p999"]
        assert summary["p999"] <= round(data[-1], 6) + 1e-6
        assert summary["p50"] >= round(data[0], 6) - 1e-6


class TestLabels:
    def test_unlabeled_name_passes_through(self):
        assert labeled_name("serve.retries", None) == "serve.retries"
        assert labeled_name("serve.retries", ()) == "serve.retries"

    def test_labels_render_sorted_by_key(self):
        name = labeled_name(
            "serve.outcomes", (("tenant", "batch"), ("status", "ok"))
        )
        assert name == "serve.outcomes{status=ok,tenant=batch}"

    def test_unknown_label_key_is_rejected(self):
        with pytest.raises(KeyError):
            labeled_name("serve.outcomes", (("color", "red"),))

    def test_registry_routes_labels_to_distinct_metrics(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x.y", labels=(("node", "acc0"),)).inc()
        registry.counter("x.y", labels=(("node", "acc1"),)).inc(2)
        registry.counter("x.y").inc(4)
        snap = registry.snapshot()
        assert snap["x.y"]["value"] == 4
        assert snap["x.y{node=acc0}"]["value"] == 1
        assert snap["x.y{node=acc1}"]["value"] == 2

    def test_off_catalog_key_raises_on_every_call(self):
        registry = MetricsRegistry(enabled=True)
        for _ in range(2):
            with pytest.raises(KeyError):
                registry.counter("serve.outcomes", labels=(("color", "red"),))
        assert registry.snapshot() == {}

    def test_memoized_name_still_checks_the_type(self):
        registry = MetricsRegistry(enabled=True)
        labels = (("tenant", "batch"),)
        registry.counter("serve.outcomes", labels=labels).inc()
        for _ in range(2):
            with pytest.raises(KeyError):
                registry.gauge("serve.outcomes", labels=labels)

    def test_unhashable_and_equal_label_values(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x.y", labels=[["node", "acc0"]]).inc()
        registry.counter("x.y", labels=[["node", "acc0"]]).inc()
        # 1, True and "1" are equal or equal-hashing keys that render
        # differently; each keeps its own name.
        registry.counter("x.y", labels=(("kind", 1),)).inc()
        registry.counter("x.y", labels=(("kind", True),)).inc()
        registry.counter("x.y", labels=(("kind", "1"),)).inc()
        snap = registry.snapshot()
        assert snap["x.y{node=acc0}"]["value"] == 2
        assert snap["x.y{kind=1}"]["value"] == 2
        assert snap["x.y{kind=True}"]["value"] == 1

    def test_labeled_time_metric_still_noisy(self):
        assert is_time_metric("run.wall_seconds{node=acc0}")
        assert not is_time_metric("serve.outcomes{status=ok}")


class TestLabelCatalogLint:
    """Every ``labels=`` literal in the source stays in the catalog."""

    def _label_keys_in(self, path: Path):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("counter", "gauge", "histogram")
            ):
                continue
            for kw in node.keywords:
                if kw.arg != "labels":
                    continue
                for pair in ast.walk(kw.value):
                    if (
                        isinstance(pair, ast.Tuple)
                        and len(pair.elts) == 2
                        and isinstance(pair.elts[0], ast.Constant)
                        and isinstance(pair.elts[0].value, str)
                    ):
                        yield path, pair.elts[0].value

    def test_source_label_keys_stay_in_catalog(self):
        found = [
            (path, key)
            for path in sorted(SRC_ROOT.rglob("*.py"))
            for path, key in self._label_keys_in(path)
        ]
        assert found, "expected at least one labeled recording site"
        strays = [
            (str(path), key)
            for path, key in found
            if key not in LABEL_CATALOG
        ]
        assert not strays, (
            f"label keys outside LABEL_CATALOG {sorted(LABEL_CATALOG)}: "
            f"{strays}"
        )
