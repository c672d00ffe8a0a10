"""Smoke-scale runs of the three paper artifacts (Table III, Fig. 2, Fig. 3)
and the logic of the ablations' shape checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    REGIMES,
    AblationsResult,
    SCALES,
    Table3Result,
    TRANSCRIPT_STAGES,
    prepare_fig2_data,
    prepare_table3_data,
    run_fig2,
    run_fig3,
    run_table3_cell,
)

SMOKE = SCALES["smoke"]


class TestDataPreparation:
    def test_table3_shards_are_imbalanced_8way(self):
        train, valid, shards, vocab_size = prepare_table3_data(SMOKE)
        assert len(shards) == 8
        sizes = [len(s) for s in shards.values()]
        assert max(sizes) > 3 * min(sizes)  # paper ratios: 0.29 vs 0.02
        assert sum(sizes) == len(train)
        assert vocab_size > 5

    def test_table3_valid_is_fifth(self):
        train, valid, _, _ = prepare_table3_data(SMOKE)
        assert abs(len(valid) / (len(train) + len(valid)) - 0.2) < 0.02

    def test_fig2_data_sizes(self):
        train, valid, vocab, collator = prepare_fig2_data(SMOKE)
        assert len(train) == SMOKE.pretrain_sequences
        assert len(valid) == SMOKE.pretrain_valid
        assert collator.mask_prob == pytest.approx(0.15)


class TestTable3Cells:
    @pytest.mark.parametrize("scheme", ["centralized", "standalone", "fl"])
    def test_cell_runs_and_returns_percent(self, scheme):
        value = run_table3_cell(scheme, "lstm-tiny", scale=SMOKE)
        assert 0.0 <= value <= 100.0

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_table3_cell("quantum", "lstm-tiny", scale=SMOKE)

    def test_result_table_rendering(self):
        result = Table3Result(scale_name="smoke")
        result.set_cell("fl", "lstm", 87.5)
        result.set_cell("centralized", "lstm", 87.9)
        text = result.to_text()
        assert "87.5" in text and "(paper: 87.9)" in text

    def test_shape_checks_logic(self):
        result = Table3Result()
        result.set_cell("centralized", "lstm", 88.0)
        result.set_cell("fl", "lstm", 87.0)
        result.set_cell("standalone", "lstm", 67.0)
        result.set_cell("centralized", "bert", 80.0)
        result.set_cell("fl", "bert", 80.0)
        result.set_cell("standalone", "bert", 72.0)
        checks = result.shape_checks()
        assert all(checks.values()), checks


class TestFig2:
    def test_all_regimes_produce_curves(self):
        result = run_fig2(scale=SMOKE)
        assert set(result.curves) == set(REGIMES)
        for curve in result.curves.values():
            assert len(curve) == SMOKE.mlm_epochs
            assert all(np.isfinite(curve))

    def test_losses_start_near_log_vocab(self):
        result = run_fig2(scale=SMOKE, regimes=("centralized",))
        _, _, vocab, _ = prepare_fig2_data(SMOKE)
        assert abs(result.curves["centralized"][0] - np.log(len(vocab))) < 1.5

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            run_fig2(scale=SMOKE, regimes=("quantum",))

    def test_regime_does_not_depend_on_regimes_before_it(self):
        alone = run_fig2(scale=SMOKE, regimes=("small",))
        after_centralized = run_fig2(scale=SMOKE)
        assert alone.curves["small"] == after_centralized.curves["small"]

    def test_to_text_renders(self):
        result = run_fig2(scale=SMOKE, regimes=("centralized", "small"))
        text = result.to_text()
        assert "centralized" in text and "MLM loss" in text


class TestFig3:
    @pytest.fixture(scope="class")
    def fig3(self):
        return run_fig3(scale=SMOKE)

    def test_all_stages_present(self, fig3):
        missing = [s for s, found in fig3.stages_found.items() if not found]
        assert not missing, f"missing stages: {missing}\n{fig3.transcript[:2000]}"

    def test_eight_tokens_issued(self, fig3):
        assert len(fig3.tokens) == 8
        assert all(len(t) == 36 for t in fig3.tokens.values())

    def test_timing_measured(self, fig3):
        assert fig3.seconds_per_local_epoch > 0

    def test_stage_patterns_match_paper_log_lines(self):
        """Regexes must match the literal lines from the paper's Fig. 3."""
        import re

        paper_lines = {
            "client_registration": "Client: New client site-1@127.0.0.1 joined. "
                                   "Sent token: 2c15ddc6-d8d3-4a98-8243-d850f27ac052. "
                                   "Total clients: 1",
            "local_epoch": "Local epoch site-3: 1/10 (lr=0.01), "
                           "train_loss=1.010, valid_acc=0.456",
            "aggregation": "aggregating 8 update(s) at round 9",
            "round_started": "Round 10 started.",
        }
        for stage, line in paper_lines.items():
            assert re.search(TRANSCRIPT_STAGES[stage], line), stage

    def test_to_text(self, fig3):
        text = fig3.to_text()
        assert "sec/local epoch" in text


class TestAblations:
    def test_shape_checks_logic(self):
        result = AblationsResult(
            privacy={"none": 85.0, "gaussian-0.3": 80.0},
            corrupted={"fedavg": 22.0, "median": 84.0},
            size={"lstm": {0.1: 70.0, 0.3: 80.0, 1.0: 84.0},
                  "bert-mini": {0.1: 78.0, 0.3: 82.0, 1.0: 79.0}})
        checks = result.shape_checks()
        assert all(checks.values()), checks

        result.corrupted["median"] = 50.0
        result.size["lstm"][1.0] = 74.9
        checks = result.shape_checks()
        assert [name for name, ok in checks.items() if not ok] == [
            "median above 50% with site-8 corrupted",
            "lstm: full data within 5pts of best fraction"]
