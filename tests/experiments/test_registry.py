"""Tests running every table/figure experiment end-to-end."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import ALL_EXPERIMENTS, get_experiment, run_all
from repro.io.ingest import dataset_from_records


class TestRegistry:
    def test_all_18_experiments_registered(self):
        # Tables II-VI (5, Table I is structural) + Figs 1-18 grouped.
        assert len(ALL_EXPERIMENTS) == 18
        ids = [e.id for e in ALL_EXPERIMENTS]
        assert len(ids) == len(set(ids))

    def test_lookup(self):
        exp = get_experiment("table4_prediction")
        assert exp.section.startswith("IV-A")
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_every_experiment_runs_on_small(self, small_ds):
        results = run_all(small_ds)
        assert len(results) == len(ALL_EXPERIMENTS)
        for result in results:
            assert isinstance(result, ExperimentResult)
            assert result.rows, f"{result.experiment_id} produced no rows"
            rendered = result.render()
            assert result.experiment_id in rendered

    def test_every_experiment_runs_without_pandora(self, small_ds):
        """An ingested dataset that never saw Pandora (as in an early
        stream epoch) has no such family; fig14 must not raise."""
        records = [r for r in small_ds.iter_attacks() if r.family != "pandora"]
        ds = dataset_from_records(records, small_ds.window)
        assert "pandora" not in ds.families
        results = run_all(ds)
        assert len(results) == 18
        for result in results:
            assert result.rows, f"{result.experiment_id} produced no rows"
        fig14 = next(r for r in results if r.experiment_id == "fig14_orgs")
        assert fig14.rows[0].measured == "0"

    @pytest.mark.parametrize("exp_id", [
        "table2_protocols", "table3_summary", "fig2_daily", "fig7_durations",
    ])
    def test_key_experiments_have_paper_columns(self, small_ds, exp_id):
        result = get_experiment(exp_id).run(small_ds)
        assert any(row.paper is not None for row in result.rows)


class TestExactRows:
    def test_table2_exact_at_any_scale(self, small_ds, tiny_config):
        """Protocol counts are pinned by construction at every scale."""
        result = get_experiment("table2_protocols").run(small_ds)
        for row in result.rows:
            if row.label.startswith("HTTP/dirtjumper"):
                # scaled: 34620 * 0.02
                assert row.measured == str(34620 // 50)

    def test_fig5_aldibot_spacing(self, small_ds):
        result = get_experiment("fig5_family_cdf").run(small_ds)
        spacing = {
            row.label: row.measured
            for row in result.rows
            if "no intervals under" in row.label
        }
        assert spacing.get("aldibot: no intervals under 60 s", "true") == "true"
