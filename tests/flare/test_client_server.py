"""Registration handshake and client task processing."""

from __future__ import annotations

import hashlib
import hmac

import numpy as np
import pytest

from repro.flare import (
    DXO,
    AuthenticationError,
    DataKind,
    ExcludeVars,
    FLServer,
    FederatedClient,
    MessageBus,
    Provisioner,
    ReservedKey,
    ReturnCode,
    TaskName,
    TransportError,
    default_project,
    from_dxo,
    generate_keypair,
    sign,
    to_dxo,
)

from repro.flare import transport

from .helpers import ToyLearner, toy_weights


@pytest.fixture()
def world():
    project = default_project(n_clients=2, name="test")
    kits = Provisioner(project, seed=0, key_bits=512).provision()
    bus = MessageBus()
    server = FLServer(kits["server"], bus, seed=0)
    clients = [FederatedClient(kits[f"site-{i}"], ToyLearner(f"site-{i}"), bus)
               for i in (1, 2)]
    return server, clients, kits, bus


def train_task(weights_value=0.0, round_number=0):
    task = from_dxo(DXO(DataKind.WEIGHTS, data=toy_weights(weights_value)))
    task.set_header(ReservedKey.ROUND_NUMBER, round_number)
    task.set_header(ReservedKey.TASK_NAME, TaskName.TRAIN)
    return task


class TestRegistration:
    def test_successful_handshake(self, world):
        server, clients, _, bus = world
        token = clients[0].register(server)
        assert server.tokens["site-1"] == token
        assert bus.session_key("site-1") is not None
        assert clients[0].learner.initialized

    def test_tokens_unique_per_client(self, world):
        server, clients, _, _ = world
        tokens = {client.register(server) for client in clients}
        assert len(tokens) == 2

    def test_foreign_certificate_rejected(self, world):
        server, _, kits, bus = world
        foreign_kits = Provisioner(default_project(n_clients=1, name="evil"),
                                   seed=99, key_bits=512).provision()
        intruder = FederatedClient(foreign_kits["site-1"], ToyLearner("x"), bus)
        with pytest.raises(AuthenticationError, match="CA"):
            intruder.register(server)

    def test_stolen_certificate_fails_proof(self, world):
        """An attacker holding site-1's cert but not its key must fail."""
        server, _, kits, _ = world
        nonce = server.issue_nonce("site-1")
        attacker_key = generate_keypair(bits=512, seed=1234)
        bad_proof = sign(nonce, attacker_key)
        with pytest.raises(AuthenticationError, match="proof"):
            server.register_client(kits["site-1"].certificate, nonce, bad_proof)

    def test_replayed_nonce_rejected(self, world):
        server, _, kits, _ = world
        kit = kits["site-1"]
        nonce = server.issue_nonce("site-1")
        proof = sign(nonce, kit.keypair)
        server.register_client(kit.certificate, nonce, proof)
        with pytest.raises(AuthenticationError, match="nonce"):
            server.register_client(kit.certificate, nonce, proof)

    def test_unregistered_client_cannot_be_tasked(self, world):
        server, clients, _, _ = world
        with pytest.raises(AuthenticationError, match="not registered"):
            server.broadcast_task(TaskName.TRAIN, train_task(), ["site-1"])


class TestTaskProcessing:
    def test_train_task_returns_updated_weights(self, world):
        server, clients, _, _ = world
        client = clients[0]
        client.register(server)
        reply = client.process_task(TaskName.TRAIN, train_task(weights_value=1.0))
        assert reply.return_code == ReturnCode.OK
        dxo = to_dxo(reply)
        np.testing.assert_allclose(dxo.data["layer.weight"], 2.0)  # +delta
        assert dxo.get_meta_prop("train_seconds") is not None

    def test_validate_task(self, world):
        server, clients, _, _ = world
        client = clients[0]
        client.register(server)
        reply = client.process_task(TaskName.VALIDATE, train_task(weights_value=3.0))
        metrics = to_dxo(reply)
        assert metrics.data["valid_acc"] == pytest.approx(3.0)

    def test_unknown_task(self, world):
        server, clients, _, _ = world
        clients[0].register(server)
        reply = clients[0].process_task("destroy", train_task())
        assert reply.return_code == ReturnCode.TASK_UNKNOWN

    def test_missing_payload(self, world):
        from repro.flare import Shareable

        server, clients, _, _ = world
        clients[0].register(server)
        reply = clients[0].process_task(TaskName.TRAIN, Shareable())
        assert reply.return_code == ReturnCode.BAD_TASK_DATA

    def test_learner_exception_becomes_return_code(self, world):
        server, clients, _, bus = world
        kit = clients[0].kit
        failing = FederatedClient(kit, ToyLearner("site-1", fail_on_round=0), bus)
        failing.register(server)
        reply = failing.process_task(TaskName.TRAIN, train_task(round_number=0))
        assert reply.return_code == ReturnCode.EXECUTION_EXCEPTION

    def test_result_filters_applied(self, world):
        server, clients, _, bus = world
        kit = clients[0].kit
        filtered = FederatedClient(kit, ToyLearner("site-1"), bus,
                                   task_result_filters=[ExcludeVars(["layer.bias"])])
        filtered.register(server)
        reply = filtered.process_task(TaskName.TRAIN, train_task())
        assert "layer.bias" not in to_dxo(reply).data

    def test_roundtrip_over_bus(self, world):
        server, clients, _, bus = world
        client = clients[0]
        client.register(server)
        server.broadcast_task(TaskName.TRAIN, train_task(weights_value=0.0),
                              ["site-1"])
        assert client.poll_once(timeout=2.0)
        sender, reply = server.collect_results(1, timeout=2.0)[0]
        assert sender == "site-1"
        np.testing.assert_allclose(to_dxo(reply).data["layer.weight"], 1.0)

    def test_serve_before_register_rejected(self, world):
        _, clients, _, _ = world
        with pytest.raises(RuntimeError, match="register"):
            clients[0].serve_in_thread()


class TestBroadcastSignsOnce:
    """One payload, hashed once: every target's tag comes from a copy of the
    HMAC state that absorbed the body, finished with that target's header."""

    @pytest.fixture()
    def fanout(self, world, monkeypatch):
        server, clients, _, bus = world
        for client in clients:
            client.register(server)
        body_passes = []
        absorb = transport.hmac_absorb

        def counting(parts, key):
            body_passes.append(len(parts[0]))
            return absorb(parts, key)

        monkeypatch.setattr(transport, "hmac_absorb", counting)
        return server, bus, body_passes

    @staticmethod
    def queued(bus, site):
        return bus._queues[site].queue[0]

    @staticmethod
    def reference_tag(bus, message):
        """The specification: HMAC-SHA256(key, body || 0x00 || header_json)."""
        return hmac.new(bus.session_key(message.sender),
                        bytes(message.body) + b"\0" + message.signed_header(),
                        hashlib.sha256).hexdigest()

    def test_every_target_gets_the_reference_tag_from_one_body_pass(self, fanout):
        server, bus, body_passes = fanout
        server.broadcast_task(TaskName.TRAIN, train_task(), ["site-1", "site-2"])
        first, second = self.queued(bus, "site-1"), self.queued(bus, "site-2")
        assert first.body is second.body  # one serialisation, shared
        assert len(body_passes) == 1
        assert first.signature != second.signature  # the headers differ
        for message in (first, second):
            assert message.signature == self.reference_tag(bus, message)
            bus.receive(message.recipient, timeout=1.0)  # and it verifies

    def test_overrides_payload_gets_its_own_hash(self, fanout):
        server, bus, body_passes = fanout
        full = train_task(weights_value=5.0)
        server.broadcast_task(TaskName.TRAIN, train_task(), ["site-1", "site-2"],
                              overrides={"site-2": full})
        first, second = self.queued(bus, "site-1"), self.queued(bus, "site-2")
        assert first.body != second.body
        assert len(body_passes) == 2
        for message in (first, second):
            assert message.signature == self.reference_tag(bus, message)
        _, _, received = bus.receive("site-2", timeout=1.0)
        np.testing.assert_allclose(to_dxo(received).data["layer.weight"], 5.0)

    def test_wave_two_retry_reuses_the_hash_and_verifies(self, fanout):
        server, bus, body_passes = fanout
        enqueue, dropped = bus._enqueue, []

        def drop_first_attempt_to_site_1(message):
            if message.recipient == "site-1" and not dropped:
                dropped.append(message)
                raise TransportError("injected first-attempt drop")
            enqueue(message)

        bus._enqueue = drop_first_attempt_to_site_1
        assert server.broadcast_task(TaskName.TRAIN, train_task(),
                                     ["site-1", "site-2"]) == []
        assert server.retries == 1
        assert len(body_passes) == 1  # the resend re-signed, it did not re-hash
        resent = self.queued(bus, "site-1")
        assert resent.headers[ReservedKey.ATTEMPT] == 1
        assert resent.headers[ReservedKey.MSG_ID] == dropped[0].headers[ReservedKey.MSG_ID]
        assert resent.signature != dropped[0].signature
        assert resent.signature == self.reference_tag(bus, resent)
        sender, topic, _ = bus.receive("site-1", timeout=1.0)
        assert (sender, topic) == ("server", TaskName.TRAIN)
