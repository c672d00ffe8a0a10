#!/usr/bin/env python
"""Federated BERT pretraining with the masked-language-model objective.

Reproduces the Fig. 2 workflow at a small scale: the same BERT encoder is
pretrained under four data regimes (centralized, small dataset, federated
imbalanced, federated balanced) and the MLM loss trajectories are compared.
Then the pretrained encoder is transferred into a classifier — the
"BERT pretraining broadens applicability" contribution of the paper.

Run:  python examples/pretrain_mlm.py
"""

from __future__ import annotations

import logging

import numpy as np

from repro.data import (
    CohortSpec,
    EhrTokenizer,
    MlmCollator,
    SequenceDataset,
    build_clinical_vocab,
    encode_cohort,
    generate_cohort,
    generate_pretraining_corpus,
    partition_balanced,
    train_valid_split,
)
from repro.experiments import ascii_plot, format_series
from repro.flare import SimulationResult, set_console_level
from repro.models import BertConfig, BertForMaskedLM, BertForSequenceClassification
from repro.training import (
    TrainConfig,
    evaluate_classifier,
    run_centralized_mlm,
    run_federated_mlm,
    train_classifier,
)

SEQ_LEN = 32
EPOCHS = 4


def pretrained_classifier(config: BertConfig, pretraining: SimulationResult
                          ) -> BertForSequenceClassification:
    """A classifier whose encoder is ``pretraining``'s final global model."""
    pretrained = BertForMaskedLM(config)
    pretrained.load_state_dict(pretraining.final_weights)
    classifier = BertForSequenceClassification(config, rng=np.random.default_rng(1))
    classifier.load_encoder_weights(pretrained.encoder_state_dict())
    return classifier


def main() -> None:
    set_console_level(logging.WARNING)
    vocab = build_clinical_vocab()
    tokenizer = EhrTokenizer(vocab, max_len=SEQ_LEN)
    collator = MlmCollator(vocab, mask_prob=0.15, seed=11)
    print(f"vocabulary: {len(vocab)} medical codes; "
          f"MLM masking p=0.15 with the 80/10/10 corruption split")

    # corpus ------------------------------------------------------------------
    corpus = generate_pretraining_corpus(1_600, seed=11)
    ids, mask = tokenizer.encode_batch(corpus)
    train = SequenceDataset(ids[:1_400], mask[:1_400])
    valid = SequenceDataset(ids[1_400:], mask[1_400:])

    config = BertConfig(vocab_size=len(vocab), hidden_dim=32, num_heads=2,
                        num_layers=2, max_seq_len=SEQ_LEN, dropout=0.1)

    def factory():
        return BertForMaskedLM(config, rng=np.random.default_rng(0))

    # regime 1: centralized ----------------------------------------------------
    print("\npretraining (centralized) ...")
    central = run_centralized_mlm(factory, train, valid, collator,
                                  epochs=EPOCHS, lr=1e-3)
    central_curve = [m.valid_loss for m in central]

    # regime 2: small dataset ----------------------------------------------------
    print("pretraining (small dataset, 2% of the corpus) ...")
    small = run_centralized_mlm(factory, train.subset(np.arange(32)), valid,
                                collator, epochs=EPOCHS, lr=1e-3)
    small_curve = [m.valid_loss for m in small]

    # regime 3: federated over 8 balanced sites -------------------------------
    print("pretraining (federated, 8 balanced sites) ...")
    shards = {f"site-{i + 1}": train.subset(s)
              for i, s in enumerate(partition_balanced(len(train), 8, seed=11))}
    fl_curve, federated = run_federated_mlm(factory, shards, valid, collator,
                                            num_rounds=EPOCHS, local_epochs=1,
                                            lr=1e-3)

    print()
    print(format_series("centralized ", central_curve))
    print(format_series("small (2%)  ", small_curve))
    print(format_series("federated   ", fl_curve))
    print()
    print(ascii_plot({"centralized": central_curve, "small": small_curve,
                      "federated": fl_curve},
                     title="MLM validation loss (cf. paper Fig. 2)"))

    # transfer: pretrain → fine-tune -------------------------------------------
    print("\ntransferring the federated-pretrained encoder into a classifier ...")
    cohort = generate_cohort(CohortSpec(n_patients=600, seed=7))
    dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=SEQ_LEN))
    train_idx, valid_idx = train_valid_split(len(dataset), 0.2, seed=7)
    clf_train, clf_valid = dataset.subset(train_idx), dataset.subset(valid_idx)

    scratch = BertForSequenceClassification(config, rng=np.random.default_rng(1))
    warm = pretrained_classifier(config, federated)

    for name, model in [("from scratch", scratch), ("pretrained encoder", warm)]:
        train_classifier(model, clf_train, TrainConfig(epochs=3, lr=1e-3))
        accuracy, _ = evaluate_classifier(model, clf_valid)
        print(f"  fine-tuned {name}: top-1 accuracy {100 * accuracy:.1f}%")


if __name__ == "__main__":
    main()
