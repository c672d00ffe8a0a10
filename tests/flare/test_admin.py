"""Admin API."""

from __future__ import annotations

import pytest

from repro.flare import (
    Barrier,
    Buffered,
    FederatedClient,
    FLServer,
    InTimeAccumulateWeightedAggregator,
    MessageBus,
    Provisioner,
    ScatterAndGather,
    default_project,
)
from repro.flare.admin import AdminAPI

from .helpers import ToyLearner, toy_weights


@pytest.fixture()
def federation():
    project = default_project(n_clients=2, name="admin")
    kits = Provisioner(project, seed=0, key_bits=512).provision()
    bus = MessageBus()
    server = FLServer(kits["server"], bus, seed=0)
    clients = []
    for spec in project.clients:
        client = FederatedClient(kits[spec.name], ToyLearner(spec.name), bus)
        client.register(server)
        client.serve_in_thread()
        clients.append(client)
    yield server, clients
    server.stop_clients([c.name for c in clients])
    for client in clients:
        client.stop()


both_policies = pytest.mark.parametrize(
    "policy", [Barrier, lambda: Buffered(buffer_size=2)],
    ids=["barrier", "buffered"])


def make_controller(server, clients, policy, rounds=3):
    return ScatterAndGather(
        server=server, client_names=[c.name for c in clients],
        initial_weights=toy_weights(),
        aggregator=InTimeAccumulateWeightedAggregator(), num_rounds=rounds,
        policy=policy())


class TestInventory:
    def test_list_clients(self, federation):
        server, clients = federation
        admin = AdminAPI(server)
        listing = admin.list_clients()
        assert [c.name for c in listing] == ["site-1", "site-2"]
        assert all(len(c.token) == 36 for c in listing)

    def test_check_client(self, federation):
        server, _ = federation
        admin = AdminAPI(server)
        info = admin.check_client("site-1")
        assert info.pending_messages == 0

    def test_check_unknown_client(self, federation):
        server, _ = federation
        with pytest.raises(KeyError):
            AdminAPI(server).check_client("site-99")


class TestJobControl:
    @both_policies
    def test_status_progresses(self, federation, policy):
        server, clients = federation
        controller = make_controller(server, clients, policy)
        admin = AdminAPI(server, controller)
        before = admin.job_status()
        assert before.current_round == 0 and not before.finished
        controller.run()
        after = admin.job_status()
        assert after.finished and after.current_round == 3
        assert after.messages_delivered > 0

    @both_policies
    def test_abort_stops_between_rounds(self, federation, policy):
        server, clients = federation
        controller = make_controller(server, clients, policy, rounds=5)
        admin = AdminAPI(server, controller)
        admin.abort_job()
        with pytest.raises(RuntimeError, match="aborted"):
            controller.run()
        assert admin.job_status().aborted

    def test_status_without_controller(self, federation):
        server, _ = federation
        with pytest.raises(RuntimeError, match="controller"):
            AdminAPI(server).job_status()
