"""Smoke-scale tests for the experiment runners (one per paper artefact)."""

import numpy as np
import pytest

from repro.core import CrossFieldCompressor
from repro.core.training import TrainingConfig
from repro.experiments import run_figure1, run_figure5, run_figure6, run_table1, run_table2, run_table3
from repro.experiments.config import FieldExperiment
from repro.sz import SZCompressor

FAST = TrainingConfig(epochs=2, n_patches=12, batch_size=4, patch_size_2d=16, patch_size_3d=8)


class TestLightRunners:
    def test_table1(self):
        result = run_table1("smoke")
        assert len(result.rows) == 3
        names = {row["name"] for row in result.rows}
        assert names == {"SCALE", "Hurricane", "CESM-ATM"}
        assert "98x1200x1200" in result.format()

    def test_table3(self):
        result = run_table3("smoke")
        assert len(result.rows) == 6
        for row in result.rows:
            assert row["cfnn_parameters"] > 100
            assert row["hybrid_parameters"] in (3, 4)
            assert row["paper_cfnn_parameters"] > 0
        assert "CFNN params" in result.format()

    def test_figure1(self):
        result = run_figure1("smoke")
        assert set(result.pearson) == {"U", "V", "W"}
        # diagonal of the Pearson matrix is 1
        for name in result.pearson:
            assert np.isclose(result.pearson[name][name], 1.0)
        # mutual information detects the (nonlinear) U-W coupling
        assert result.mutual_information["U"]["W"] > 0.05
        assert "Pearson" in result.format()


class TestHeavyRunnersSmoke:
    def test_table2_single_cell(self):
        experiments = [FieldExperiment("cesm", "LWCF", (1e-3,))]
        result = run_table2("smoke", experiments=experiments, training=FAST)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["baseline_ratio"] > 1.0
        assert row["ours_ratio"] > 0.5
        assert "paper_baseline" in row
        assert np.isfinite(result.mean_improvement())
        assert result.improvement_for("cesm", "LWCF", 1e-3) == pytest.approx(row["improvement_percent"])
        with pytest.raises(KeyError):
            result.improvement_for("cesm", "LWCF", 9e-9)

    def test_figure5_losses_decrease(self):
        result = run_figure5("smoke", dataset="cesm", target="LWCF", training=FAST, hybrid_epochs=5)
        assert len(result.cfnn_loss) == FAST.epochs
        assert len(result.hybrid_loss) == 5
        assert result.hybrid_decreased()
        assert "cfnn" in result.format()

    def test_figure6_hybrid_at_least_as_good_as_worst(self):
        result = run_figure6("smoke", dataset="cesm", target="CLDTOT", training=FAST, zoom_size=20)
        assert set(result.metrics) == {"cross_field", "lorenzo", "hybrid"}
        worst = min(v["psnr"] for v in result.metrics.values())
        assert result.metrics["hybrid"]["psnr"] >= worst
        assert result.best_predictor() in result.metrics
        assert "Predictor" in result.format()


class TestTable2BoundCheck:
    """Every Table II cell decodes both payloads and holds the error bound."""

    def test_every_smoke_cell_holds_the_bound(self):
        result = run_table2("smoke")
        assert len(result.rows) == 23
        for row in result.rows:
            assert 0.0 < row["bound_margin"] <= 1.0, row

    @pytest.mark.parametrize("codec", [SZCompressor, CrossFieldCompressor], ids=["sz", "cross-field"])
    def test_a_corrupted_reconstruction_raises(self, codec, monkeypatch):
        decompress = codec.decompress

        def corrupted(self, *args, **kwargs):
            values = decompress(self, *args, **kwargs)
            values.flat[0] += np.ptp(values)  # far outside any relative bound below 1
            return values

        monkeypatch.setattr(codec, "decompress", corrupted)
        experiments = [FieldExperiment("cesm", "LWCF", (1e-3,))]
        with pytest.raises(RuntimeError, match="cesm:LWCF at error bound 0.001 breaks the bound"):
            run_table2("smoke", experiments=experiments, training=FAST)
