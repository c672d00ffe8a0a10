"""Run statistics container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import ClientRoundRecord, RoundRecord, RunStats


def make_stats():
    stats = RunStats()
    for round_number, acc in enumerate([0.5, 0.8, 0.7]):
        record = RoundRecord(round_number=round_number,
                             global_metrics={"valid_acc": acc})
        for client in ("site-1", "site-2"):
            record.client_records.append(ClientRoundRecord(
                client=client, round_number=round_number, train_loss=1.0,
                valid_acc=acc, num_steps=10, seconds=2.0 + round_number))
        stats.add_round(record)
    return stats


def test_history():
    assert make_stats().global_metric_history("valid_acc") == [0.5, 0.8, 0.7]


def test_best_and_final():
    stats = make_stats()
    assert stats.best_global_metric("valid_acc") == 0.8
    assert stats.final_global_metric("valid_acc") == 0.7


def test_best_metric_mode():
    stats = make_stats()
    assert stats.best_global_metric("valid_acc", mode="max") == 0.8
    assert stats.best_global_metric("valid_acc", mode="min") == 0.5
    with pytest.raises(ValueError):
        stats.best_global_metric("valid_acc", mode="average")


def test_missing_metric_raises():
    with pytest.raises(KeyError):
        make_stats().best_global_metric("f1")
    with pytest.raises(KeyError):
        make_stats().final_global_metric("f1")
    with pytest.raises(KeyError):
        make_stats().global_metric_history("f1")


def test_missing_metric_error_names_available_keys():
    with pytest.raises(KeyError, match="valid_acc"):
        make_stats().best_global_metric("f1")


def test_mean_seconds_per_local_epoch():
    assert make_stats().mean_seconds_per_local_epoch() == pytest.approx(3.0)


def test_mean_seconds_empty():
    assert RunStats().mean_seconds_per_local_epoch() == 0.0


def test_client_history():
    history = make_stats().client_metric_history("site-1")
    assert [r.round_number for r in history] == [0, 1, 2]


def test_num_rounds():
    assert make_stats().num_rounds == 3


def test_to_dict_roundtrip_with_telemetry_pointers(tmp_path):
    import json

    stats = make_stats()
    stats.messages_delivered = 30
    stats.bytes_delivered = 9000
    stats.retries = 2
    stats.duplicates_dropped = 1
    stats.peak_receive_buffer_bytes = 29_618_970
    stats.telemetry = {"metrics": "/runs/x/metrics.json",
                       "trace": "/runs/x/trace.jsonl",
                       "profile": "/runs/x/profile.json"}
    path = stats.save_json(tmp_path / "stats.json")
    restored = RunStats.from_dict(json.loads(path.read_text()))
    assert restored.telemetry == stats.telemetry
    assert restored.duplicates_dropped == 1
    assert restored.peak_receive_buffer_bytes == 29_618_970
    assert restored.messages_delivered == 30
    assert restored.global_metric_history("valid_acc") == [0.5, 0.8, 0.7]
    assert restored.rounds[0].client_records[0].client == "site-1"


def test_to_dict_omits_empty_telemetry():
    payload = make_stats().to_dict()
    assert "telemetry" not in payload
    assert payload["duplicates_dropped"] == 0
    assert RunStats.from_dict(payload).telemetry == {}
