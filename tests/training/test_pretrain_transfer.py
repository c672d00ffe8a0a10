"""examples/pretrain_mlm.py fine-tunes the encoder its federated run trained."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.data import (EhrTokenizer, MlmCollator, SequenceDataset,
                        build_clinical_vocab, generate_pretraining_corpus)
from repro.models import BertConfig, BertForMaskedLM
from repro.training import run_federated_mlm

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "pretrain_mlm.py"


def load_example():
    spec = importlib.util.spec_from_file_location("pretrain_mlm", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classifier_encoder_is_the_federated_global_model():
    example = load_example()
    vocab = build_clinical_vocab()
    ids, mask = EhrTokenizer(vocab, max_len=16).encode_batch(
        generate_pretraining_corpus(48, seed=11))
    train, valid = SequenceDataset(ids[:32], mask[:32]), SequenceDataset(ids[32:], mask[32:])
    config = BertConfig(vocab_size=len(vocab), hidden_dim=8, num_heads=2,
                        num_layers=1, max_seq_len=16, dropout=0.1)

    def factory():
        return BertForMaskedLM(config, rng=np.random.default_rng(0))

    shards = {"site-1": train.subset(np.arange(16)),
              "site-2": train.subset(np.arange(16, 32))}
    _, federated = run_federated_mlm(factory, shards, valid,
                                     MlmCollator(vocab, seed=11), num_rounds=1,
                                     batch_size=8, threads=False)

    classifier = example.pretrained_classifier(config, federated)
    encoder = {name: param.data for name, param in classifier.named_parameters()
               if name.startswith("bert.")}
    assert encoder and set(encoder) <= set(federated.final_weights)
    for name, value in encoder.items():
        np.testing.assert_array_equal(value, federated.final_weights[name])
    initial = factory().state_dict()
    assert any(not np.array_equal(initial[name], value)
               for name, value in encoder.items())
