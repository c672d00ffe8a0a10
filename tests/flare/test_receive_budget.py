"""The socket fabric's receive budget.

A node holds at most one tensor-sized frame between "body read started"
and "its consumer let go of it, or called ``receive`` again" — however many
links feed it — plus whatever else its consumer still keeps, and nothing
once the consumer has let go.  These tests pin the bound (gauge and
tracemalloc agree), what the bound must not break (order, exactly-once),
that every error path gives its credit back, and that no way of stopping in
the middle of it can hang a node — the overdraft backstop included.
"""

from __future__ import annotations

import gc
import socket
import struct
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.flare import (
    DXO,
    DataKind,
    FaultPlan,
    FLJob,
    Learner,
    Message,
    MetaKey,
    Shareable,
    SignatureError,
    SimulatorRunner,
    TransportError,
)
from repro.flare import simulator, socket_transport
from repro.flare.server import FLServer
from repro.flare.socket_transport import (
    _RECEIVE_CREDITS,
    MAX_FRAME_BYTES,
    SocketMessageBus,
    encode_data_frame,
)
from repro.flare.transport import ReceiveTimeout

BODY = 2 << 20
SERVER_KEY = b"k" * 32


def wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def hung_up(raw: socket.socket) -> bool:
    """The peer closed (FIN, or RST when it left bytes unread)."""
    try:
        return raw.recv(1) == b""
    except ConnectionResetError:
        return True


def big_shareable(fill: int, seq: int = 0) -> Shareable:
    shareable = Shareable({"seq": seq})
    shareable["DXO"] = bytes([fill]) * BODY
    return shareable


def make_hub() -> SocketMessageBus:
    hub = SocketMessageBus()
    hub.register_endpoint("server")
    hub.install_session_key("server", SERVER_KEY)
    return hub


def add_spoke(hub: SocketMessageBus, index: int) -> SocketMessageBus:
    name = f"site-{index}"
    spoke = SocketMessageBus.connect(hub.address)
    spoke.register_endpoint(name)
    spoke.install_session_key(name, name.encode() * 4)
    spoke.register_peer("server")
    spoke.install_session_key("server", SERVER_KEY)
    hub.register_peer(name)
    hub.install_session_key(name, name.encode() * 4)
    return spoke


def free_credits(node: SocketMessageBus) -> int:
    with node._budget:
        return node._credits


def queued_credits(node: SocketMessageBus) -> int:
    """Credits held by frames still sitting in the node's inboxes."""
    return sum(credit is not None and credit.alive
               for q in node._queues.values() for _, credit in list(q.queue))


def traced_receive_bytes() -> int:
    """Live bytes allocated from ``socket_transport.py`` (the receive buffers;
    what a sender allocates comes from ``transport.py`` and the codec)."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, socket_transport.__file__)])
    return sum(stat.size for stat in snapshot.statistics("filename"))


class Fleet:
    """A hub, ``n`` in-process spokes, and one sender thread per spoke."""

    def __init__(self, n: int) -> None:
        self.hub = make_hub()
        self.spokes = [add_spoke(self.hub, index) for index in range(1, n + 1)]
        self.hub.wait_for_endpoints([f"site-{i}" for i in range(1, n + 1)], 10.0)
        # Loopback socket buffers would swallow a whole 2 MiB body; shrunk, a
        # sender whose frame the hub has not admitted really sits in sendmsg.
        for spoke in self.spokes:
            spoke._uplink.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32 << 10)
        for link in self.hub._links.values():
            link.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 << 10)
        self.errors: list[Exception] = []
        self.threads: list[threading.Thread] = []

    def send_all(self, per_site) -> None:
        """``per_site(index)`` yields ``(topic, shareable)`` to send in order."""
        def run(index: int, spoke: SocketMessageBus) -> None:
            try:
                for topic, shareable in per_site(index):
                    spoke.send_shareable(f"site-{index}", "server", topic, shareable)
            except TransportError as error:
                self.errors.append(error)

        for index, spoke in enumerate(self.spokes, start=1):
            thread = threading.Thread(target=run, args=(index, spoke), daemon=True)
            thread.start()
            self.threads.append(thread)

    def senders_done(self, timeout: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout
        for thread in self.threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        return not any(thread.is_alive() for thread in self.threads)

    def close(self) -> None:
        for node in (*self.spokes, self.hub):
            node.close()


@pytest.fixture()
def fleet(request):
    fleets: list[Fleet] = []

    def build(n: int) -> Fleet:
        fleets.append(Fleet(n))
        return fleets[-1]

    yield build
    for built in fleets:
        built.close()


class TestBoundIndependentOfSenders:
    @pytest.mark.parametrize("n", [3, 12])
    def test_resident_bytes_order_and_release(self, fleet, n):
        tracemalloc.start()
        try:
            group = fleet(n)
            hub = group.hub
            # one tensor-sized update, then a small trailer on the same link
            group.send_all(lambda index: [
                ("train:result", big_shareable(index, seq=0)),
                ("note", Shareable({"seq": 1}))])
            # the consumer does not read: one update is admitted, the other
            # n - 1 wait in their senders' sendmsg, not in this heap
            assert wait_until(lambda: free_credits(hub) == 0)
            time.sleep(0.2)
            assert hub.pending("server") <= 2 * _RECEIVE_CREDITS
            for resident in (hub._resident.value, traced_receive_bytes()):
                assert BODY <= resident <= 2 * BODY
            assert sum(thread.is_alive() for thread in group.threads) == n - 1

            received: dict[str, list[int]] = {}
            for _ in range(2 * n):
                sender, topic, shareable = hub.receive("server", timeout=5.0)
                received.setdefault(sender, []).append(shareable["seq"])
                if topic == "train:result":
                    index = int(sender.split("-")[1])
                    assert bytes(shareable["DXO"][:2]) == bytes([index, index])
                    # what a fold holds: its frame keeps the one credit
                    assert hub._resident.value <= BODY + (64 << 10)
                del shareable  # as the round engine does before it waits again
            # per-sender FIFO, nothing lost, nothing twice
            assert received == {f"site-{i}": [0, 1] for i in range(1, n + 1)}
            assert group.senders_done() and not group.errors
            assert hub.pending("server") == 0
            assert BODY <= hub.peak_receive_buffer_bytes <= BODY + (64 << 10)

            # the consumer has let go and the links sit idle: nothing stays
            # pinned by a reader loop waiting for its link's next frame
            gc.collect()
            assert hub._resident.value == 0
            assert traced_receive_bytes() < BODY // 8
            assert free_credits(hub) == _RECEIVE_CREDITS
        finally:
            tracemalloc.stop()


class TestEveryPathReturnsItsCredit:
    def settled(self, hub: SocketMessageBus) -> None:
        gc.collect()
        assert wait_until(lambda: hub._resident.value == 0, timeout=2.0)
        assert free_credits(hub) == _RECEIVE_CREDITS
        hub.close()
        assert free_credits(hub) + queued_credits(hub) == _RECEIVE_CREDITS

    def test_corrupted_body(self):
        hub = make_hub()
        hub.register_peer("site-1")
        hub.install_session_key("site-1", b"site-1" * 4)
        forged = Message(sender="site-1", recipient="server", topic="train:result",
                         body=bytes(BODY), signature="00" * 32,
                         headers={"__msg_id__": "site-1:0", "__attempt__": 0})
        with socket.create_connection(hub.address, timeout=5.0) as raw:
            raw.sendall(b"".join(encode_data_frame(forged)))
            assert wait_until(lambda: hub.pending("server") == 1)
            assert free_credits(hub) == _RECEIVE_CREDITS - 1
            try:
                hub.receive("server", timeout=5.0)
            except SignatureError:
                pass  # (pytest.raises would keep the traceback, and the frame)
            else:
                pytest.fail("forged body was accepted")
        self.settled(hub)

    def test_duplicate_msg_id(self):
        hub = make_hub()
        spoke = add_spoke(hub, 1)
        try:
            for attempt in range(2):
                spoke.send_shareable("site-1", "server", "train:result",
                                     big_shareable(1), msg_id="site-1:0",
                                     attempt=attempt)
            # the copy waits in sendmsg for the credit the first one holds
            assert wait_until(lambda: hub.pending("server") == _RECEIVE_CREDITS)
            assert free_credits(hub) == 0
            sender, _, shareable = hub.receive("server", timeout=5.0)
            assert sender == "site-1" and len(shareable["DXO"]) == BODY
            del shareable
            with pytest.raises(ReceiveTimeout):
                hub.receive("server", timeout=0.2)
            assert hub.duplicates_dropped == 1
        finally:
            spoke.close()
        self.settled(hub)

    def test_oversize_prefix_takes_none(self):
        hub = make_hub()
        with socket.create_connection(hub.address, timeout=5.0) as raw:
            raw.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1) + b"\x01" * 64)
            assert hung_up(raw)  # dropped before any wait or allocation
        assert hub._resident.peak == 0
        self.settled(hub)


class TestNoNewWayToHang:
    def test_frozen_senders_lose_their_credits_to_the_stall_deadline(self, monkeypatch):
        """A prefix, half a body, then silence — on as many links as there are
        credits.  Each is dropped like a mid-frame disconnect, after which a
        live spoke's update gets through."""
        monkeypatch.setattr(socket_transport, "_STALL_SECONDS", 0.3)
        hub = make_hub()
        spoke = add_spoke(hub, 1)
        frozen = [socket.create_connection(hub.address, timeout=5.0)
                  for _ in range(_RECEIVE_CREDITS)]
        try:
            for raw in frozen:
                raw.sendall(struct.pack("<I", BODY) + b"\x01" + bytes(BODY // 2))
            assert wait_until(lambda: free_credits(hub) == 0)
            started = time.monotonic()
            spoke.send_shareable("site-1", "server", "train:result", big_shareable(1))
            sender, _, shareable = hub.receive("server", timeout=5.0)
            assert sender == "site-1" and len(shareable["DXO"]) == BODY
            assert time.monotonic() - started < 3.0
            assert all(hung_up(raw) for raw in frozen)
            assert hub.metrics.counter("transport.frame_errors").value == len(frozen)
            del shareable
            assert wait_until(lambda: hub._resident.value == 0, timeout=2.0)
            assert free_credits(hub) == _RECEIVE_CREDITS
        finally:
            for raw in frozen:
                raw.close()
            spoke.close()
            hub.close()

    def test_close_wakes_readers_waiting_for_a_credit(self, fleet):
        """The consumer never reads; ``close()`` neither waits for it nor
        leaves a reader or a sender behind."""
        group = fleet(5)
        hub = group.hub
        group.send_all(lambda index: [("train:result", big_shareable(index))])
        assert wait_until(lambda: free_credits(hub) == 0)
        time.sleep(0.1)
        started = time.monotonic()
        hub.close()
        assert time.monotonic() - started < 1.0
        assert not [t.name for t in hub._threads if t.is_alive()]
        # the senders that were held back see a dead hub, not a silent one
        assert group.senders_done(timeout=5.0)
        assert len(group.errors) == 5 - _RECEIVE_CREDITS
        assert free_credits(hub) + queued_credits(hub) == _RECEIVE_CREDITS
        for spoke in group.spokes:
            spoke.close()
        assert not [t.name for node in group.spokes for t in node._threads
                    if t.is_alive()]

    def test_abort_and_telemetry_drain_with_both_credits_held(self, fleet, tmp_path):
        """Replies nobody will fold hold the credit and block the senders
        behind them; the two end-of-run readers still get through."""
        from repro.flare.provision import Provisioner, default_project
        from repro.flare.runner import ProcessClientRunner
        from repro.obs.session import TelemetryCollector

        group = fleet(5)
        hub = group.hub
        kits = Provisioner(default_project(n_clients=1), seed=0,
                           key_bits=128).provision()
        server = FLServer(kits["server"], hub)  # endpoint "server" on the hub
        hub.install_session_key("server", SERVER_KEY)
        final = {"client": "site-1", "seq": 0, "final": True}
        group.send_all(lambda index: [
            ("train:result", big_shareable(index)),
            ("__telemetry__", Shareable({"telemetry": dict(final, client=f"site-{index}")}))])
        assert wait_until(lambda: free_credits(hub) == 0)
        runner = ProcessClientRunner(lambda name: None, kits, server,
                                     collector=TelemetryCollector())
        server.telemetry_sink = runner.collector.ingest
        runner._processes = {f"site-{i}": threading.current_thread()
                             for i in range(1, 6)}  # "alive" stand-ins
        started = time.monotonic()
        server.abort_tasks()
        assert time.monotonic() - started < 2.0
        snapshots = runner.drain_telemetry(timeout=5.0)
        assert time.monotonic() - started < 5.0
        assert sorted(snapshots) == [f"site-{i}" for i in range(1, 6)]
        assert group.senders_done() and not group.errors
        gc.collect()
        assert hub._resident.value == 0
        assert free_credits(hub) == _RECEIVE_CREDITS


    def test_join_keeps_the_hub_reading_for_workers_stuck_in_a_send(self, fleet):
        """A worker sending a reply nobody will fold reads its ``__stop__``
        only after the send: ``join()`` must not sit out its timeout on it."""
        from repro.flare.provision import Provisioner, default_project
        from repro.flare.runner import ProcessClientRunner

        class Worker:  # a sender thread with a process's face
            exitcode = 0

            def __init__(self, thread: threading.Thread) -> None:
                self.is_alive, self.join = thread.is_alive, thread.join

        group = fleet(5)
        kits = Provisioner(default_project(n_clients=1), seed=0,
                           key_bits=128).provision()
        server = FLServer(kits["server"], group.hub)
        group.send_all(lambda index: [("train:result", big_shareable(index))])
        assert wait_until(lambda: free_credits(group.hub) == 0)
        runner = ProcessClientRunner(lambda name: None, kits, server)
        runner._processes = {thread.name: Worker(thread) for thread in group.threads}
        started = time.monotonic()
        assert set(runner.join(timeout=20.0).values()) == {0}
        assert time.monotonic() - started < 3.0
        assert group.senders_done(timeout=0.0) and not group.errors


class TestLivenessBackstop:
    """A reader that waited ``_STALL_SECONDS`` for the credit reads anyway."""

    def test_consumer_keeping_every_frame_gets_all_in_order(self, fleet, monkeypatch):
        monkeypatch.setattr(socket_transport, "_STALL_SECONDS", 2.0)
        group = fleet(4)
        hub = group.hub
        group.send_all(lambda index: [("train:result", big_shareable(index, seq))
                                      for seq in range(3)])
        kept, received = [], {}
        for _ in range(12):
            sender, _, shareable = hub.receive("server", timeout=5.0)
            received.setdefault(sender, []).append(shareable["seq"])
            kept.append(shareable)  # never let go: the next receive frees the credit
        assert received == {f"site-{i}": [0, 1, 2] for i in range(1, 5)}
        assert group.senders_done() and not group.errors
        assert hub.metrics.counter("transport.credit_overdrafts").value == 0
        del kept, shareable
        gc.collect()
        assert hub._resident.value == 0
        assert free_credits(hub) == _RECEIVE_CREDITS

    def test_forced_overdraft_is_counted_and_the_node_keeps_serving(
            self, fleet, monkeypatch):
        monkeypatch.setattr(socket_transport, "_STALL_SECONDS", 0.3)
        group = fleet(1)
        hub = group.hub
        overdrafts = hub.metrics.counter("transport.credit_overdrafts")
        # nobody reads: the second update outwaits the credit the first holds
        group.send_all(lambda index: [("train:result", big_shareable(index, seq))
                                      for seq in range(2)])
        assert wait_until(lambda: hub.pending("server") == 2)
        assert overdrafts.value == 1
        assert group.senders_done() and not group.errors
        for seq in range(2):
            _, _, shareable = hub.receive("server", timeout=5.0)
            assert shareable["seq"] == seq
            del shareable
        gc.collect()
        assert free_credits(hub) == _RECEIVE_CREDITS
        group.spokes[0].send_shareable("site-1", "server", "train:result",
                                       big_shareable(1, seq=2))
        _, _, shareable = hub.receive("server", timeout=5.0)
        assert shareable["seq"] == 2 and overdrafts.value == 1

    def test_close_wakes_a_reader_before_its_stall_deadline(self, fleet, monkeypatch):
        monkeypatch.setattr(socket_transport, "_STALL_SECONDS", 3.0)
        group = fleet(3)
        hub = group.hub
        group.send_all(lambda index: [("train:result", big_shareable(index))])
        assert wait_until(lambda: free_credits(hub) == 0)
        time.sleep(0.1)
        started = time.monotonic()
        hub.close()
        assert time.monotonic() - started < 1.0
        assert not [t.name for t in hub._threads if t.is_alive()]
        assert hub.metrics.counter("transport.credit_overdrafts").value == 0


class ShiftLearner(Learner):
    """Adds a per-site whole number: sums are exact, so arrival order (which
    differs between fabrics) cannot change a bit of the average."""

    def __init__(self, site: str) -> None:
        super().__init__(name="ShiftLearner")
        self.shift = np.float32(int(site.split("-")[1]))

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        return DXO(DataKind.WEIGHTS,
                   data={key: np.asarray(value) + self.shift
                         for key, value in dxo.data.items()},
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 8})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {"valid_acc": 0.5}


def wide_weights(total_bytes: int) -> dict[str, np.ndarray]:
    count = total_bytes // 4 // 4
    return {f"block{i}.weight": np.zeros(count, dtype=np.float32) for i in range(4)}


class TestEndToEnd:
    @pytest.mark.parametrize("n_sites", [4, 8])
    def test_peak_receive_buffer_is_three_payloads_at_any_site_count(
            self, tmp_path, n_sites):
        weights = wide_weights(4 << 20)
        payload = sum(value.nbytes for value in weights.values())
        job = FLJob(name="budget", initial_weights=weights,
                    learner_factory=ShiftLearner, num_rounds=2)
        results = {
            transport: SimulatorRunner(
                replace(job, transport=transport), n_clients=n_sites, seed=0,
                key_bits=128, capture_log=False, max_parallel=n_sites,
                run_dir=tmp_path / transport).run()
            for transport in ("socket", "memory")}
        stats = results["socket"].stats
        assert payload <= stats.peak_receive_buffer_bytes <= payload + (64 << 10)
        assert results["memory"].stats.peak_receive_buffer_bytes == 0
        assert stats.peak_materialized_updates <= 2
        for key, value in results["memory"].final_weights.items():
            np.testing.assert_array_equal(results["socket"].final_weights[key], value)
        restored = type(stats).from_dict(stats.to_dict())
        assert restored.peak_receive_buffer_bytes == stats.peak_receive_buffer_bytes


@pytest.mark.chaos
def test_lossy_async_socket_run_leaks_no_credit_and_no_reader(tmp_path, monkeypatch):
    """Drop + duplicate + delay on every link, FedBuff commits, updates big
    enough to take credits: when ``run()`` returns every credit is either
    free or on a frame still queued, and no reader thread is left."""
    hubs: list[SocketMessageBus] = []

    class RecordedHub(SocketMessageBus):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            hubs.append(self)

    monkeypatch.setattr(simulator, "SocketMessageBus", RecordedHub)
    weights = wide_weights(512 << 10)
    job = FLJob(name="budget-chaos", initial_weights=weights,
                learner_factory=ShiftLearner, num_rounds=4, mode="async",
                buffer_size=2, concurrency=4, min_clients=2,
                result_timeout=10.0, max_failed_rounds=2)
    # (seed chosen so the plan spares the __stop__ fan-out: a dropped stop
    # costs the 30 s join timeout on any fabric)
    plan = FaultPlan(seed=8, drop_prob=0.15, duplicate_prob=0.15,
                     delay_prob=0.3, max_delay=0.03)
    result = SimulatorRunner(replace(job, transport="socket"), n_clients=4, seed=0,
                             key_bits=128, capture_log=False, run_dir=tmp_path,
                             fault_plan=plan).run()
    (hub,) = hubs
    assert result.stats.num_rounds == 4
    stats = result.stats
    assert stats.retries + stats.duplicates_dropped > 0  # the plan bit
    # credits were in play, and held: the update in the fold plus two
    assert 512 << 10 <= stats.peak_receive_buffer_bytes <= 3 * ((512 << 10) + 8192)
    assert free_credits(hub) + queued_credits(hub) == _RECEIVE_CREDITS
    assert not [thread.name for thread in hub._threads if thread.is_alive()]


@pytest.mark.chaos
def test_buffered_socket_run_holds_no_reply_across_a_send(tmp_path, monkeypatch):
    """FedBuff under drop + duplicate + delay: every broadcast goes out with
    no received frame still bound in the round engine (it would hold the
    hub's one credit while the controller waits in ``sendmsg``), and the hub
    never holds more than one update."""
    hubs: set[SocketMessageBus] = set()
    held_at_send: list[bool] = []
    broadcast = FLServer.broadcast_task

    def recorded_broadcast(server, *args, **kwargs):
        hubs.add(server.bus)
        claim = server.bus._claims.get(server.name)
        held_at_send.append(claim is not None and claim.alive)
        return broadcast(server, *args, **kwargs)

    monkeypatch.setattr(FLServer, "broadcast_task", recorded_broadcast)
    weights = wide_weights(512 << 10)
    payload = sum(value.nbytes for value in weights.values())
    job = FLJob(name="budget-buffered", initial_weights=weights,
                learner_factory=ShiftLearner, num_rounds=4, mode="async",
                buffer_size=2, concurrency=4, min_clients=2,
                result_timeout=10.0, max_failed_rounds=2)
    plan = FaultPlan(seed=8, drop_prob=0.15, duplicate_prob=0.15,
                     delay_prob=0.3, max_delay=0.03)
    result = SimulatorRunner(replace(job, transport="socket"), n_clients=4, seed=0,
                             key_bits=128, capture_log=False, run_dir=tmp_path,
                             fault_plan=plan).run()
    (hub,) = hubs
    stats = result.stats
    assert stats.num_rounds == 4 and all(r.quorum_met for r in stats.rounds)
    assert len(held_at_send) > 4 and not any(held_at_send)
    assert payload <= stats.peak_receive_buffer_bytes <= payload + (64 << 10)
    assert hub.metrics.counter("transport.credit_overdrafts").value == 0
