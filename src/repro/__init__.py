"""repro — reproduction of "Multi-Site Clinical Federated Learning using
Recursive and Attentive Models and NVFlare" (ICDCS 2023).

Subpackages
-----------
``repro.autograd``
    From-scratch reverse-mode autodiff + optimisers (the PyTorch stand-in).
``repro.nn``
    Neural-network layers (attention, transformer, LSTM, heads).
``repro.models``
    The paper's models: BERT, BERT-mini, LSTM classifier (Table II presets).
``repro.data``
    Synthetic clopidogrel EHR cohort, tokenizer, partitioners, MLM masking.
``repro.flare``
    The NVFlare-style federated framework: provisioning, secure transport,
    ScatterAndGather, aggregation, filters, simulator.
``repro.training``
    Learners, training loops and the centralized/standalone/FL schemes.
``repro.experiments``
    Reproductions of Table III, Fig. 2 and Fig. 3.
``repro.obs``
    Federation-wide telemetry: metrics registry, trace spans, op profiler
    and the ``python -m repro.obs report`` CLI.

``import repro`` loads none of them: a process imports the subpackages it uses.
"""

__version__ = "1.0.0"
