"""A site's memory budget, and the exact bytes its envelopes carry.

A site answering a raw train task holds at most two model-sized buffers at
once: the task and the result while the learner runs, then the result and
the reply's envelope while it is sent.  Nothing of the task outlives the
reply.  The budget is measured with tracemalloc around ``poll_once`` on the
memory bus, where the task's envelope is the server's own buffer.

The property pins what the one-buffer encode must keep: the signed body of a
task and of a reply is ``u32le(len h) | h | DXO.to_bytes(codec)``, ``h`` the
sorted-JSON headers, under every wire codec, and the tag is the HMAC of
``body || 0x00 || signed header``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import time
import tracemalloc
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flare import (
    DXO,
    DataKind,
    FederatedClient,
    FLServer,
    Learner,
    MessageBus,
    Provisioner,
    ReservedKey,
    ReturnCode,
    TaskName,
    default_project,
    from_dxo,
    set_wire_codec,
)

MIB = 1 << 20
MODEL_BYTES = 8 * MIB


class Shift(Learner):
    """Returns the global model plus a constant: one new model copy."""

    def __init__(self) -> None:
        super().__init__(name="Shift")

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        return DXO(DataKind.WEIGHTS, data={key: value + np.float32(1e-3)
                                           for key, value in dxo.data.items()},
                   meta={"n": 1})


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


def federation(bus: MessageBus, client_type=FederatedClient, learner=None):
    kits = Provisioner(default_project(n_clients=1, name="budget"), seed=0,
                       key_bits=512).provision()
    server = FLServer(kits["server"], bus, seed=0)
    client = client_type(kits["site-1"], learner or Shift(), bus)
    client.register(server)
    return server, client


def train_task(state: dict, round_number: int):
    task = from_dxo(DXO(DataKind.WEIGHTS, data=state))
    task.set_header(ReservedKey.ROUND_NUMBER, round_number)
    return task


def measure_site(rounds: int = 2) -> tuple[list[int], list[int]]:
    """Per task: (peak inside ``poll_once``, held after the server drained
    the reply), both in bytes above what was allocated before the broadcast."""
    server, client = federation(MessageBus())
    state = {"embed": np.ones(MODEL_BYTES // 8, dtype=np.float32),
             "dense": np.ones(MODEL_BYTES // 16, dtype=np.float32),
             "head": np.ones(MODEL_BYTES // 16, dtype=np.float32)}
    assert sum(array.nbytes for array in state.values()) == MODEL_BYTES
    peaks, held = [], []
    tracemalloc.start()
    try:
        for round_number in range(rounds):
            task = train_task(state, round_number)
            before = tracemalloc.get_traced_memory()[0]
            assert server.broadcast_task(TaskName.TRAIN, task, ["site-1"]) == []
            tracemalloc.reset_peak()
            assert client.poll_once(timeout=5.0)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            site, reply = server.next_result(timeout=5.0)
            assert site == "site-1" and reply.return_code == ReturnCode.OK
            del reply
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


@pytest.fixture()
def frozen_npz_clock(monkeypatch):
    """npz members carry the encode time; pin it so two encodes of one DXO
    are byte-equal."""
    fixed = time.mktime((2020, 1, 1, 0, 0, 0, 0, 1, -1))
    monkeypatch.setattr(zipfile, "time", SimpleNamespace(
        time=lambda: fixed, localtime=time.localtime))


def expected_body(shareable, codec: str) -> bytes:
    headers = {key: value for key, value in shareable.items() if key != "DXO"}
    h = json.dumps(headers, sort_keys=True).encode("utf-8")
    return len(h).to_bytes(4, "little") + h + shareable["DXO"].to_bytes(codec)


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
@given(codec=st.sampled_from(["raw", "raw+deflate", "npz"]), specs=tensors,
       round_number=st.integers(0, 100))
def test_envelopes_carry_exactly_the_dxo_bytes(recorded_federation, frozen_npz_clock,
                                               codec, specs, round_number):
    bus, server, client = recorded_federation
    rng = np.random.default_rng(round_number)
    state = {name: np.asarray(rng.standard_normal(shape) * 4).astype(dtype)
             for name, (dtype, shape) in specs.items()}
    previous = set_wire_codec(codec)
    try:
        task = train_task(state, round_number)
        bus.sent.clear()
        server.broadcast_task(TaskName.TRAIN, task, ["site-1"])
        assert client.poll_once(timeout=5.0)
        assert server.next_result(timeout=5.0) is not None
        sent_task, sent_reply = bus.sent
        task.set_header(ReservedKey.TASK_NAME, TaskName.TRAIN)
        assert_signed(bus, sent_task, expected_body(task, codec))
        assert client.reply.return_code == ReturnCode.OK
        assert_signed(bus, sent_reply, expected_body(client.reply, codec))
    finally:
        set_wire_codec(previous)
