"""A site's memory budget, and the exact bytes its envelopes carry.

A site answering a raw train task holds at most two model-sized buffers at
once: the task and the result while the learner runs, then the result and
the reply's envelope while it is sent.  Nothing of the task outlives the
reply.  The budget is measured with tracemalloc around ``poll_once`` on the
memory bus, where the task's envelope is the server's own buffer.

Under delta compression the site keeps one model between rounds, the
delta cache, and its filters work one tensor at a time.  Its peak is the
cache and the result plus the reply's wire form; with top-k, plus the
working set of the tensor being sparsified (the diff, its magnitudes and
``argpartition``'s int64 indices, four times the tensor).  That term scales
with the largest tensor, so the compressed budget is measured on a
layered model of equal tensors, as a real model is (BERT's largest tensor
is under 3% of it).  After the reply only the cache is held.  The same
budgets hold inside a forked socket worker, where a learner reports its
own process's tracemalloc peak.

The property pins what the one-buffer encode must keep: the signed body of a
task and of a reply is ``u32le(len h) | h | DXO.to_bytes(codec)``, ``h`` the
sorted-JSON headers, under every wire codec, and the tag is the HMAC of
``body || 0x00 || signed header``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    CompressionConfig,
    DataKind,
    DXOFilter,
    Downlink,
    FederatedClient,
    FilterChain,
    FLContext,
    FLJob,
    FLServer,
    Float16Quantize,
    Learner,
    MessageBus,
    Provisioner,
    ReservedKey,
    ReturnCode,
    SimulatorRunner,
    TaskName,
    TopKSparsify,
    default_project,
    from_dxo,
)

MIB = 1 << 20
MODEL_BYTES = 8 * MIB
LAYERS = 16
# the per-tensor working set of DeltaEncode's top-k stage, in tensors
TENSOR_WORK = 4
COMPRESSED = ["delta+fp16", "delta+fp16+topk:0.1"]


class Shift(Learner):
    """Returns the global model plus a constant: one new model copy."""

    def __init__(self) -> None:
        super().__init__(name="Shift")

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        return DXO(DataKind.WEIGHTS, data={key: value + np.float32(1e-3)
                                           for key, value in dxo.data.items()},
                   meta={"n": 1})


def layered_state() -> dict[str, np.ndarray]:
    """An 8 MiB float32 model of ``LAYERS`` equal tensors."""
    return {f"layer{i}.weight": np.full(MODEL_BYTES // (4 * LAYERS), i,
                                        dtype=np.float32)
            for i in range(LAYERS)}


def reply_wire_bytes(spec: str) -> int:
    """The tensor bytes of a compressed reply to a :func:`layered_state`
    task, as the whole-model top-k and fp16 filters encode its diff."""
    config = CompressionConfig.from_spec(spec)
    diff = DXO(DataKind.WEIGHT_DIFF, data={key: np.full_like(value, 1e-3)
                                           for key, value in layered_state().items()})
    chain = [TopKSparsify(ratio=config.top_k)] if config.top_k else []
    if config.float16:
        chain.append(Float16Quantize())
    wire = FilterChain(chain).process(diff, FLContext(identity="site-1"))
    return sum(value.nbytes for value in wire.data.values())


def compressed_budget(spec: str) -> int:
    """2 x model + the reply's wire size + 1 MiB, plus top-k's per-tensor
    working set when the spec sparsifies."""
    work = TENSOR_WORK * MODEL_BYTES // LAYERS if "topk" in spec else 0
    return 2 * MODEL_BYTES + reply_wire_bytes(spec) + work + MIB


class RecordingBus(MessageBus):
    """Keeps every envelope it dispatches."""

    def __init__(self) -> None:
        super().__init__()
        self.sent = []

    def _dispatch(self, message) -> None:
        self.sent.append(message)
        super()._dispatch(message)


class RecordingClient(FederatedClient):
    """Keeps the last reply it built, before the transport encodes it."""

    reply = None

    def process_task(self, task_name, shareable):
        self.reply = super().process_task(task_name, shareable)
        return self.reply


def federation(bus: MessageBus, client_type=FederatedClient, learner=None,
               config: CompressionConfig | None = None):
    kits = Provisioner(default_project(n_clients=1, name="budget"), seed=0,
                       key_bits=512).provision()
    server = FLServer(kits["server"], bus, seed=0)
    filters = {}
    if config is not None:
        filters = {"task_data_filters": config.client_task_filters(),
                   "task_result_filters": config.client_result_filters()}
    client = client_type(kits["site-1"], learner or Shift(), bus, **filters)
    client.register(server)
    return server, client


def train_task(state: dict, round_number: int):
    task = from_dxo(DXO(DataKind.WEIGHTS, data=state))
    task.set_header(ReservedKey.ROUND_NUMBER, round_number)
    return task


def raw_tasks(rounds: int):
    state = {"embed": np.ones(MODEL_BYTES // 8, dtype=np.float32),
             "dense": np.ones(MODEL_BYTES // 16, dtype=np.float32),
             "head": np.ones(MODEL_BYTES // 16, dtype=np.float32)}
    assert sum(array.nbytes for array in state.values()) == MODEL_BYTES
    for round_number in range(rounds):
        yield train_task(state, round_number)


def compressed_tasks(config: CompressionConfig, rounds: int):
    """The real ``Downlink``'s waves: the full model, then deltas."""
    downlink = Downlink(config)
    state = layered_state()
    for round_number in range(rounds):
        canonical, task, overrides = downlink.build(
            state, ["site-1"], round_number,
            {ReservedKey.ROUND_NUMBER: round_number}, FLContext(identity="server"))
        yield (overrides or {}).get("site-1", task)
        downlink.ack("site-1")
        state = {key: value + np.float32(0.01) for key, value in canonical.items()}


def measure_site(spec: str | None = None, rounds: int = 3
                 ) -> tuple[list[int], list[int]]:
    """Per task: (peak inside ``poll_once``, held after the server drained
    the reply), both in bytes above what was allocated before the broadcast.
    ``spec`` is a compression spec (``None``: raw tasks)."""
    config = CompressionConfig.from_spec(spec)
    server, client = federation(MessageBus(), config=config)
    tasks = raw_tasks(rounds) if config is None else compressed_tasks(config, rounds)
    peaks, held = [], []
    tracemalloc.start()
    try:
        for task in tasks:
            before = tracemalloc.get_traced_memory()[0]
            assert server.broadcast_task(TaskName.TRAIN, task, ["site-1"]) == []
            tracemalloc.reset_peak()
            assert client.poll_once(timeout=5.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            site, reply = server.next_result(timeout=5.0)
            assert site == "site-1" and reply.return_code == ReturnCode.OK
            del reply, task
            held.append(tracemalloc.get_traced_memory()[0] - before)
    finally:
        tracemalloc.stop()
    return peaks, held


class TestSiteMemoryBudget:
    def test_a_site_holds_at_most_two_model_copies(self):
        peaks, _ = measure_site()
        assert max(peaks) <= 2 * MODEL_BYTES + MIB, (
            f"poll_once peaked at {max(peaks) / MODEL_BYTES:.2f} x model")

    def test_nothing_of_a_task_outlives_its_reply(self):
        _, held = measure_site()
        assert max(held) <= MIB, (
            f"{max(held) / MODEL_BYTES:.2f} x model still held after the reply")

    @pytest.mark.parametrize("spec", COMPRESSED)
    def test_a_compressed_site_holds_two_model_copies_and_its_reply(self, spec):
        peaks, _ = measure_site(spec)
        assert max(peaks) <= compressed_budget(spec), (
            f"poll_once peaked at {max(peaks) / MODEL_BYTES:.2f} x model")

    @pytest.mark.parametrize("spec", COMPRESSED)
    def test_a_compressed_site_keeps_only_its_delta_cache(self, spec):
        _, held = measure_site(spec)
        assert max(held) <= MODEL_BYTES + MIB, (
            f"{max(held) / MODEL_BYTES:.2f} x model still held after the reply")


# ---------------------------------------------------------------------------
# the same budgets inside a forked socket worker
# ---------------------------------------------------------------------------
class TracedShift(Shift):
    """:class:`Shift` that reports its own process's memory in the result
    meta: the tracemalloc peak since its previous train call, above what
    the process held then beside the task.  Everything a site allocates
    from the end of one train call to the start of the next (result
    filters, the reply, the next task and its decode) is in that window."""

    def __init__(self) -> None:
        super().__init__()
        self._base: int | None = None

    def initialize(self, fl_ctx) -> None:
        tracemalloc.start()

    def finalize(self, fl_ctx) -> None:
        tracemalloc.stop()

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        report = None if self._base is None else peak - self._base
        self._base = current - sum(np.asarray(value).nbytes
                                   for value in dxo.data.values())
        result = super().train(dxo, fl_ctx)
        result.set_meta_prop("peak_above_base", report)
        return result


class MetaRecorder(DXOFilter):
    """Server-side: collects every reply's ``peak_above_base``."""

    def __init__(self) -> None:
        super().__init__(name="MetaRecorder")
        self.peaks: list[int] = []

    def process(self, dxo: DXO, fl_ctx) -> DXO:
        if dxo.get_meta_prop("peak_above_base") is not None:
            self.peaks.append(dxo.get_meta_prop("peak_above_base"))
        return dxo


def measure_worker(spec: str | None, tmp_path, rounds: int = 4) -> list[int]:
    """Each forked socket worker's peak per round, after the first."""
    recorder = MetaRecorder()
    job = FLJob(name="worker-budget", initial_weights=layered_state(),
                learner_factory=lambda name: TracedShift(), num_rounds=rounds,
                server_result_filters=[recorder], compression=spec)
    SimulatorRunner(replace(job, transport="socket"), n_clients=2, seed=0,
                    run_dir=tmp_path, capture_log=False).run()
    assert len(recorder.peaks) == 2 * (rounds - 1)
    return recorder.peaks


@pytest.mark.parametrize("spec", [None, "delta+fp16+topk:0.1"])
def test_a_forked_worker_keeps_the_site_budget(spec, tmp_path):
    peaks = measure_worker(spec, tmp_path)
    budget = 2 * MODEL_BYTES + MIB if spec is None else compressed_budget(spec)
    assert max(peaks) <= budget, (
        f"a worker peaked at {max(peaks) / MODEL_BYTES:.2f} x model")


# ---------------------------------------------------------------------------
# wire identity
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def recorded_federation():
    bus = RecordingBus()

    class Copy(Learner):
        def train(self, dxo: DXO, fl_ctx) -> DXO:
            return DXO(DataKind.WEIGHTS,
                       data={key: np.array(value)[::-1] if np.ndim(value) else value
                             for key, value in dxo.data.items()},
                       meta={"site": "site-1", "ratio": 0.5})

    server, client = federation(bus, RecordingClient, Copy(name="Copy"))
    return bus, server, client


def expected_body(shareable) -> bytes:
    headers = {key: value for key, value in shareable.items() if key != "DXO"}
    h = json.dumps(headers, sort_keys=True).encode("utf-8")
    return len(h).to_bytes(4, "little") + h + shareable["DXO"].to_bytes()


def assert_signed(bus: MessageBus, message, body: bytes) -> None:
    assert bytes(message.body) == body
    key = bus.session_key(message.sender)
    tag = hmac.new(key, body + b"\x00" + message.signed_header(),
                   hashlib.sha256).hexdigest()
    assert message.signature == tag


tensors = st.dictionaries(
    st.text(alphabet="abcdefgh.", min_size=1, max_size=8),
    st.tuples(st.sampled_from(["<f4", "<f8", "<f2", "<i8", "|i1", "|b1"]),
              st.lists(st.integers(0, 5), max_size=3)),
    min_size=1, max_size=4)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(specs=tensors, round_number=st.integers(0, 100))
def test_envelopes_carry_exactly_the_dxo_bytes(recorded_federation, specs,
                                               round_number):
    bus, server, client = recorded_federation
    rng = np.random.default_rng(round_number)
    state = {name: np.asarray(rng.standard_normal(shape) * 4).astype(dtype)
             for name, (dtype, shape) in specs.items()}
    task = train_task(state, round_number)
    bus.sent.clear()
    server.broadcast_task(TaskName.TRAIN, task, ["site-1"])
    assert client.poll_once(timeout=5.0)
    assert server.next_result(timeout=5.0) is not None
    sent_task, sent_reply = bus.sent
    task.set_header(ReservedKey.TASK_NAME, TaskName.TRAIN)
    assert_signed(bus, sent_task, expected_body(task))
    assert client.reply.return_code == ReturnCode.OK
    assert_signed(bus, sent_reply, expected_body(client.reply))
