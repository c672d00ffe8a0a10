"""Bus-conformance suite: one contract, every fabric.

Each test runs against a *fabric* — a deployment of Transport nodes hosting
a "server" and a "site-1" endpoint with session keys installed on both
sides.  The memory fabric is a single :class:`MessageBus` node; the socket
fabric is a hub node plus a spoke node joined over TCP loopback, so every
assertion here exercises real frames on the wire; the shm fabric is one
:class:`ShmMessageBus` whose bodies cross mmap'd segments.  Whatever
behaviour this suite pins is the contract the simulator (and everything
above the Transport seam) may rely on, regardless of transport selection.
"""

from __future__ import annotations

import pytest

from repro.flare import (
    FaultPlan,
    MessageBus,
    ReceiveTimeout,
    ReservedKey,
    RetryPolicy,
    Shareable,
    ShmMessageBus,
    SignatureError,
    SocketMessageBus,
    TransportError,
    send_with_retry,
)

SERVER = "server"
CLIENT = "site-1"
SERVER_KEY = b"s" * 32
CLIENT_KEY = b"c" * 32


class Fabric:
    """A deployed set of transport nodes hosting SERVER and CLIENT."""

    def __init__(self, kind: str, server_bus, client_bus, nodes) -> None:
        self.kind = kind
        self.server_bus = server_bus  # node hosting the SERVER endpoint
        self.client_bus = client_bus  # node hosting the CLIENT endpoint
        self.nodes = nodes

    def bus_for(self, name: str):
        return self.server_bus if name == SERVER else self.client_bus

    def close(self) -> None:
        for node in self.nodes:
            node.close()


def _install_keys(bus) -> None:
    bus.install_session_key(SERVER, SERVER_KEY)
    bus.install_session_key(CLIENT, CLIENT_KEY)


def make_fabric(kind: str, fault_plan: FaultPlan | None = None) -> Fabric:
    if kind == "memory":
        bus = MessageBus(fault_plan=fault_plan)
        bus.register_endpoint(SERVER)
        bus.register_endpoint(CLIENT)
        _install_keys(bus)
        return Fabric(kind, bus, bus, [bus])
    if kind == "shm":
        # inline_limit=0 forces every body through an mmap'd segment, so
        # the whole contract is exercised on the zero-copy path
        bus = ShmMessageBus(fault_plan=fault_plan, inline_limit=0)
        bus.register_endpoint(SERVER)
        bus.register_endpoint(CLIENT)
        _install_keys(bus)
        return Fabric(kind, bus, bus, [bus])
    hub = SocketMessageBus(fault_plan=fault_plan)
    hub.register_endpoint(SERVER)
    hub.register_peer(CLIENT)
    _install_keys(hub)
    spoke = SocketMessageBus.connect(hub.address, fault_plan=fault_plan)
    spoke.register_endpoint(CLIENT)
    spoke.register_peer(SERVER)
    _install_keys(spoke)
    hub.wait_for_endpoints([CLIENT], timeout=10.0)
    # close the spoke first: its BYE beats the hub tearing the link down
    return Fabric(kind, hub, spoke, [spoke, hub])


@pytest.fixture(params=["memory", "socket", "shm"])
def fabric(request):
    deployed = make_fabric(request.param)
    yield deployed
    deployed.close()


def payload(tag: str) -> Shareable:
    shareable = Shareable({"tag": tag})
    shareable["DXO"] = f"body-{tag}".encode("utf-8")
    return shareable


class TestConformance:
    def test_roundtrip_both_directions(self, fabric):
        fabric.server_bus.send_shareable(SERVER, CLIENT, "task", payload("down"))
        sender, topic, received = fabric.client_bus.receive(CLIENT, timeout=5.0)
        assert (sender, topic) == (SERVER, "task")
        assert received["tag"] == "down"
        assert received["DXO"] == b"body-down"

        fabric.client_bus.send_shareable(CLIENT, SERVER, "task:result",
                                         payload("up"))
        sender, topic, received = fabric.server_bus.receive(SERVER, timeout=5.0)
        assert (sender, topic) == (CLIENT, "task:result")
        assert received["DXO"] == b"body-up"

    def test_fifo_ordering_per_pair(self, fabric):
        for index in range(8):
            fabric.server_bus.send_shareable(SERVER, CLIENT, f"t{index}",
                                             payload(str(index)))
        topics = [fabric.client_bus.receive(CLIENT, timeout=5.0)[1]
                  for _ in range(8)]
        assert topics == [f"t{index}" for index in range(8)]

    def test_receive_timeout_carries_context(self, fabric):
        with pytest.raises(ReceiveTimeout) as excinfo:
            fabric.client_bus.receive(CLIENT, timeout=0.05, topic="task",
                                      peer=SERVER)
        timeout = excinfo.value
        assert timeout.endpoint == CLIENT
        assert timeout.topic == "task"
        assert timeout.peer == SERVER
        assert "expected topic 'task' from 'server'" in str(timeout)

    def test_resend_same_msg_id_delivered_once(self, fabric):
        bus = fabric.client_bus
        msg_id = bus.next_msg_id(CLIENT)
        for attempt in range(2):
            bus.send_shareable(CLIENT, SERVER, "task:result", payload("once"),
                               msg_id=msg_id, attempt=attempt)
        sender, topic, _ = fabric.server_bus.receive(SERVER, timeout=5.0)
        assert (sender, topic) == (CLIENT, "task:result")
        with pytest.raises(ReceiveTimeout):
            fabric.server_bus.receive(SERVER, timeout=0.3)
        assert fabric.server_bus.duplicates_dropped == 1
        assert bus.retry_count == 1  # the attempt=1 resend

    def test_signature_rejection(self, fabric):
        fabric.server_bus.send_shareable(SERVER, CLIENT, "task", payload("x"))
        # the receiving node holds a stale key for the sender
        fabric.client_bus.install_session_key(SERVER, b"z" * 32)
        with pytest.raises(SignatureError, match="signature"):
            fabric.client_bus.receive(CLIENT, timeout=5.0)

    @pytest.mark.parametrize("flipped", ["body byte", "header field", "topic"])
    def test_tampering_after_signing_rejected(self, fabric, flipped):
        """The tag covers every body byte and every header field."""
        bus = fabric.server_bus
        dispatch = bus._dispatch

        def tamper_in_flight(message):
            if flipped == "body byte":
                last = len(message.body) - 1
                message.body = message.body[:last] + bytes([message.body[last] ^ 0x01])
            elif flipped == "header field":
                message.headers[ReservedKey.ATTEMPT] ^= 1
            else:
                message.topic = "tasj"
            dispatch(message)

        bus._dispatch = tamper_in_flight
        bus.send_shareable(SERVER, CLIENT, "task", payload("x"))
        with pytest.raises(SignatureError, match="signature"):
            fabric.client_bus.receive(CLIENT, timeout=5.0)

    def test_unsigned_sender_rejected_at_send(self, fabric):
        fabric.server_bus.register_peer("ghost")
        with pytest.raises(TransportError, match="no session key"):
            fabric.server_bus.send_shareable("ghost", CLIENT, "task",
                                             payload("x"))

    def test_unknown_recipient_rejected_by_routing_owner(self, fabric):
        # the hub owns the routing table; a spoke defers to its judgement
        with pytest.raises(TransportError, match="unknown recipient"):
            fabric.server_bus.send_shareable(SERVER, "ghost", "task",
                                             payload("x"))

    def test_send_with_retry_healthy_uses_one_attempt(self, fabric):
        attempts = send_with_retry(fabric.client_bus, CLIENT, SERVER,
                                   "task:result", payload("ok"))
        assert attempts == 1
        sender, topic, _ = fabric.server_bus.receive(SERVER, timeout=5.0)
        assert (sender, topic) == (CLIENT, "task:result")

    def test_delivery_metrics_accounted(self, fabric):
        fabric.server_bus.send_shareable(SERVER, CLIENT, "task", payload("m"))
        fabric.client_bus.receive(CLIENT, timeout=5.0)
        assert fabric.server_bus.delivered_count >= 1
        assert fabric.server_bus.delivered_bytes > 0


class TestConformanceUnderFaults:
    """send_with_retry semantics on a lossy fabric, both transports."""

    @pytest.fixture(params=["memory", "socket", "shm"])
    def lossy(self, request):
        plan = FaultPlan(seed=11, drop_prob=1.0)
        deployed = make_fabric(request.param, fault_plan=plan)
        yield deployed
        deployed.close()

    def test_send_with_retry_exhausts_attempts(self, lossy):
        policy = RetryPolicy(max_attempts=3, base_delay=0.001)
        with pytest.raises(TransportError, match="after 3 attempt"):
            send_with_retry(lossy.client_bus, CLIENT, SERVER, "task:result",
                            payload("doomed"), policy)
        failures = lossy.client_bus.metrics.counter(
            "transport.send_failures", topic="task:result")
        assert int(failures.value) == 3
