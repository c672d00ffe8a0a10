"""Retry/backoff, idempotency and HMAC-rejection properties of the transport.

Property-style: seeded loops over drop probabilities and fault mixes rather
than single examples, asserting the invariants that make resends safe —
bounded attempts, monotone backoff, exactly-once delivery under duplication
and replay, and corruption rejected by signature checks instead of crashes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import (
    DXO,
    DataKind,
    FaultPlan,
    FLServer,
    FederatedClient,
    MessageBus,
    Provisioner,
    ReceiveTimeout,
    RetryPolicy,
    Shareable,
    SignatureError,
    TaskName,
    TransportError,
    default_project,
    from_dxo,
    send_with_retry,
    to_dxo,
)

from .helpers import ToyLearner, toy_weights


def wired_bus(bus: MessageBus | None = None) -> MessageBus:
    bus = bus if bus is not None else MessageBus()
    for name, key in (("server", b"server-key"), ("site-1", b"client-key")):
        bus.register_endpoint(name)
        bus.install_session_key(name, key)
    return bus


def payload() -> Shareable:
    return from_dxo(DXO(DataKind.WEIGHTS, data={"w": np.arange(4.0)}))


FAST = RetryPolicy(max_attempts=5, base_delay=0.0, max_delay=0.0)


class TestBackoffPolicy:
    def test_backoff_is_monotone_and_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.01,
                             multiplier=2.0, max_delay=0.1)
        delays = [policy.delay_for(attempt) for attempt in range(8)]
        assert delays == sorted(delays)
        assert all(delay <= policy.max_delay for delay in delays)
        assert delays[0] == pytest.approx(0.01)
        assert delays[-1] == pytest.approx(0.1)  # capped

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(base_delay=-0.1)


class TestBoundedRetries:
    @pytest.mark.parametrize("drop_prob", [0.1, 0.3, 0.5, 0.8])
    def test_attempts_bounded_for_any_drop_probability(self, drop_prob):
        for seed in range(8):
            bus = wired_bus(MessageBus(fault_plan=FaultPlan(seed=seed,
                                                       drop_prob=drop_prob)))
            try:
                attempts = send_with_retry(bus, "server", "site-1", "train",
                                           payload(), FAST)
            except TransportError:
                # every attempt dropped: the retry budget must be exhausted,
                # never exceeded
                assert bus.injected_drops >= FAST.max_attempts
                continue
            assert 1 <= attempts <= FAST.max_attempts
            assert bus.pending("site-1") == 1
            assert bus.retry_count == attempts - 1

    def test_all_attempts_share_one_message_id(self):
        # drop_prob=1 with a huge budget exercises many resends of one id
        bus = wired_bus(MessageBus(fault_plan=FaultPlan(seed=0, drop_prob=1.0)))
        with pytest.raises(TransportError, match="undeliverable"):
            send_with_retry(bus, "server", "site-1", "train", payload(),
                            RetryPolicy(max_attempts=7, base_delay=0.0,
                                        max_delay=0.0))
        assert bus.injected_drops == 7


class TestExactlyOnceDelivery:
    def test_duplicate_send_is_deduplicated_exactly_once(self):
        bus = wired_bus()
        msg_id = bus.next_msg_id("server")
        for attempt in range(2):  # a resend after a delivered-but-unacked send
            bus.send_shareable("server", "site-1", "train", payload(),
                               msg_id=msg_id, attempt=attempt)
        sender, topic, _ = bus.receive("site-1", timeout=1.0)
        assert (sender, topic) == ("server", "train")
        with pytest.raises(ReceiveTimeout):
            bus.receive("site-1", timeout=0.1)
        assert bus.duplicates_dropped == 1

    def test_replayed_envelope_rejected(self):
        bus = wired_bus()
        bus.send_shareable("server", "site-1", "train", payload())
        captured = bus._queues["site-1"].queue[0]
        bus.receive("site-1", timeout=1.0)
        bus._queues["site-1"].put(captured)  # attacker replays old envelope
        with pytest.raises(ReceiveTimeout):
            bus.receive("site-1", timeout=0.1)
        assert bus.duplicates_dropped == 1

    def test_injected_duplicates_all_deduplicated(self):
        for seed in range(5):
            bus = wired_bus(MessageBus(fault_plan=FaultPlan(seed=seed,
                                                       duplicate_prob=1.0)))
            for i in range(5):
                shareable = Shareable({"i": i})
                bus.send_shareable("server", "site-1", "t", shareable)
            got = [bus.receive("site-1", timeout=1.0)[2]["i"] for _ in range(5)]
            assert got == list(range(5))
            with pytest.raises(ReceiveTimeout):
                bus.receive("site-1", timeout=0.1)
            assert bus.duplicates_dropped == 5


class TestCorruptionRejected:
    def test_corrupted_payload_fails_hmac(self):
        for seed in range(5):
            bus = wired_bus(MessageBus(fault_plan=FaultPlan(seed=seed,
                                                       corrupt_prob=1.0)))
            bus.send_shareable("server", "site-1", "train", payload())
            with pytest.raises(SignatureError, match="signature"):
                bus.receive("site-1", timeout=1.0)

    def test_empty_body_corruption_still_rejected(self):
        bus = wired_bus(MessageBus(fault_plan=FaultPlan(seed=0, corrupt_prob=1.0)))
        bus.send_shareable("server", "site-1", "ping", Shareable())
        with pytest.raises(SignatureError):
            bus.receive("site-1", timeout=1.0)


@pytest.fixture()
def world():
    project = default_project(n_clients=2, name="partial")
    kits = Provisioner(project, seed=0, key_bits=512).provision()
    bus = MessageBus()
    server = FLServer(kits["server"], bus, seed=0)
    clients = [FederatedClient(kits[f"site-{i}"], ToyLearner(f"site-{i}"), bus)
               for i in (1, 2)]
    for client in clients:
        client.register(server)
    return server, clients, bus


def train_task() -> Shareable:
    return from_dxo(DXO(DataKind.WEIGHTS, data=toy_weights(0.0)))


class TestPartialCollection:
    """Regression: a timeout mid-collection must not lose received results."""

    def test_partial_results_survive_timeout(self, world):
        server, clients, _ = world
        server.broadcast_task(TaskName.TRAIN, train_task(),
                              ["site-1", "site-2"])
        clients[0].poll_once(timeout=1.0)  # only site-1 answers
        results = server.collect_results(2, timeout=0.3)
        assert [sender for sender, _ in results] == ["site-1"]
        np.testing.assert_allclose(to_dxo(results[0][1]).data["layer.weight"],
                                   1.0)

    def test_corrupted_result_skipped_not_fatal(self, world):
        server, clients, bus = world
        server.broadcast_task(TaskName.TRAIN, train_task(),
                              ["site-1", "site-2"])
        clients[0].poll_once(timeout=1.0)
        clients[1].poll_once(timeout=1.0)
        # corrupt site-2's queued result in flight (results are collected
        # FIFO, so the corrupted envelope is hit before the deadline)
        for message in bus._queues[server.name].queue:
            if message.sender == "site-2":
                message.body = message.body[:-1] + bytes(
                    [message.body[-1] ^ 0xFF])
        results = server.collect_results(2, timeout=0.3)
        assert [sender for sender, _ in results] == ["site-1"]

    def test_empty_collection_returns_empty_list(self, world):
        server, _, _ = world
        assert server.collect_results(1, timeout=0.1) == []

    def test_client_retry_counter_tracks_resends(self, world):
        server, clients, _ = world
        # replace the bus send path with one that drops the first attempt
        client = clients[0]
        client.retry_policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                                          max_delay=0.0)
        original = client.bus.send_shareable
        state = {"failed": False}

        def flaky_send(sender, recipient, topic, shareable, msg_id=None,
                       attempt=0):
            if topic.endswith(":result") and not state["failed"]:
                state["failed"] = True
                raise TransportError("injected first-attempt drop")
            return original(sender, recipient, topic, shareable,
                            msg_id=msg_id, attempt=attempt)

        client.bus.send_shareable = flaky_send
        try:
            server.broadcast_task(TaskName.TRAIN, train_task(), ["site-1"])
            client.poll_once(timeout=1.0)
        finally:
            client.bus.send_shareable = original
        assert client.retries == 1
        assert len(server.collect_results(1, timeout=1.0)) == 1
