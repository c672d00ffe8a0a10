"""The socket fabric's write and read paths.

Out: one frame builder yields ``[small head, body]`` and ``write_frame``
hands the parts to ``sendmsg`` unjoined, resuming after partial writes.
In: ``read_frame`` fills one buffer with ``recv_into`` and everything
downstream — envelope, Shareable, tensors — is a read-only view of it.
Hostile and malformed frames stay pinned by ``test_socket_chaos.py``; this
file covers what that suite cannot see: where the kernel splits a write or
a read, how much a declared length makes a reader allocate, and teardown.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.flare import DXO, DataKind, Message, TransportError, from_dxo, to_dxo
from repro.flare import socket_transport
from repro.flare.socket_transport import (
    FRAME_DATA,
    MAX_FRAME_BYTES,
    SocketMessageBus,
    decode_data_frame,
    encode_data_frame,
    read_frame,
    write_frame,
)


def tiny_pipe(sndbuf: int = 4096) -> tuple[socket.socket, socket.socket]:
    """A stream pair (writer, reader) whose writer has a tiny send buffer.

    With a timeout set, a socket takes whatever fits instead of blocking, so
    every ``sendmsg`` of a large frame is a partial write.  (A unix pair:
    loopback TCP with a send buffer this small stalls on delayed ACKs.)
    """
    writer, reader = socket.socketpair()
    writer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    writer.settimeout(20.0)
    reader.settimeout(20.0)
    return writer, reader


class RecordingSocket:
    """Delegates ``sendmsg`` and keeps what each call was offered and took."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.calls: list[tuple[list[int], int]] = []

    def sendmsg(self, views) -> int:
        sent = self.sock.sendmsg(views)
        self.calls.append(([len(view) for view in views], sent))
        return sent


class DribbleSocket:
    """Serves ``data`` to ``recv_into`` at most ``step`` bytes at a time."""

    def __init__(self, data: bytes, step: int) -> None:
        self.data, self.step, self.position, self.reads = data, step, 0, 0

    def recv_into(self, view) -> int:
        count = min(self.step, len(view), len(self.data) - self.position)
        view[:count] = self.data[self.position:self.position + count]
        self.position += count
        self.reads += 1
        return count


def big_message(body_bytes: int, head_filler: int = 0) -> Message:
    rng = np.random.default_rng(5)
    return Message(sender="site-1", recipient="server", topic="train:result",
                   body=rng.bytes(body_bytes), signature="cd" * 32,
                   headers={"__msg_id__": "site-1:0", "__attempt__": 0,
                            "filler": "x" * head_filler})


class TestWriteFrame:
    def test_partial_writes_split_inside_head_and_inside_body(self):
        """8 MB through a tiny send buffer: the kernel stops where it likes."""
        message = big_message(8 << 20, head_filler=256 << 10)
        parts = encode_data_frame(message)
        head, body = parts
        assert body is message.body  # handed to sendmsg as it is, not joined
        writer, reader = tiny_pipe()
        received: list = []
        thread = threading.Thread(target=lambda: received.append(read_frame(reader)))
        thread.start()
        try:
            recorder = RecordingSocket(writer)
            write_frame(recorder, parts)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        finally:
            writer.close()
            reader.close()
        assert sum(sent for _, sent in recorder.calls) == len(head) + len(body)
        # a call that took part of the head, and one that took part of the body
        assert any(len(offered) == 2 and sent < offered[0]
                   for offered, sent in recorder.calls)
        assert any(len(offered) == 1 and sent < offered[0]
                   for offered, sent in recorder.calls)
        frame_type, rest = received[0]
        assert frame_type == FRAME_DATA
        assert decode_data_frame(rest) == message

    @pytest.mark.parametrize("takes", [1, 7, 4096])
    def test_resumes_at_any_split_point(self, takes):
        """Deterministic splits: the socket takes ``takes`` bytes per call."""
        class Trickle:
            def __init__(self) -> None:
                self.written = bytearray()

            def sendmsg(self, views) -> int:
                joined = b"".join(views)[:takes]
                self.written += joined
                return len(joined)

        parts = encode_data_frame(big_message(10_000))
        trickle = Trickle()
        write_frame(trickle, parts)
        assert bytes(trickle.written) == b"".join(parts)


class TestReadFrame:
    @pytest.mark.parametrize("step", [1, 3, 5, 1000])
    def test_short_reads_across_prefix_and_payload(self, step):
        message = big_message(5_000)
        frame = b"".join(encode_data_frame(message))
        sock = DribbleSocket(frame, step)
        frame_type, rest = read_frame(sock)
        assert frame_type == FRAME_DATA
        assert decode_data_frame(rest) == message
        assert sock.reads >= len(frame) // step
        assert sock.position == len(frame)

    def test_frame_larger_than_first_allocation_grows_as_it_arrives(self, monkeypatch):
        monkeypatch.setattr(socket_transport, "_FIRST_ALLOC", 1024)
        message = big_message(50_000)
        frame = b"".join(encode_data_frame(message))
        frame_type, rest = read_frame(DribbleSocket(frame + b"next", 4096))
        assert decode_data_frame(rest) == message

    def test_payload_is_one_read_only_buffer(self):
        message = big_message(5_000)
        _, rest = read_frame(DribbleSocket(b"".join(encode_data_frame(message)),
                                           1 << 20))
        assert isinstance(rest, memoryview) and rest.readonly
        body = decode_data_frame(rest).body
        assert isinstance(body, memoryview) and body.obj is rest.obj  # a slice

    def test_hostile_length_prefix_commits_only_what_arrived(self):
        """Declared 1 GiB, sent 10 bytes: an error, and no gigabyte."""
        writer, reader = socket.socketpair()
        reader.settimeout(5.0)
        try:
            writer.sendall(struct.pack("<I", MAX_FRAME_BYTES) + b"\x01" + b"j" * 9)
            writer.close()
            tracemalloc.start()
            try:
                with pytest.raises(TransportError, match="mid-frame"):
                    read_frame(reader)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            reader.close()
        assert peak <= 2 * socket_transport._FIRST_ALLOC
        assert peak < MAX_FRAME_BYTES // 16


@pytest.fixture()
def hub_and_spokes():
    """A hub hosting ``server`` and eight connected spokes ``site-1..8``."""
    hub = SocketMessageBus()
    hub.register_endpoint("server")
    hub.install_session_key("server", b"k" * 32)
    spokes = []
    for index in range(1, 9):
        name = f"site-{index}"
        spoke = SocketMessageBus.connect(hub.address)
        spoke.register_endpoint(name)
        spoke.install_session_key(name, name.encode() * 4)
        spoke.register_peer("server")
        spoke.install_session_key("server", b"k" * 32)
        hub.register_peer(name)
        hub.install_session_key(name, name.encode() * 4)
        spokes.append(spoke)
    hub.wait_for_endpoints([f"site-{index}" for index in range(1, 9)], timeout=10.0)
    yield hub, spokes
    for node in (*spokes, hub):
        node.close()


class TestSocketDeliveredBodies:
    def test_decoded_arrays_are_read_only_like_those_from_bytes(self, hub_and_spokes):
        hub, spokes = hub_and_spokes
        weights = {"w": np.arange(12, dtype=np.float32).reshape(3, 4)}
        shareable = from_dxo(DXO(DataKind.WEIGHTS, data=weights))
        from_bytes = to_dxo(shareable).data["w"]
        spokes[0].send_shareable("site-1", "server", "train:result", shareable)
        _, _, received = hub.receive("server", timeout=5.0)
        assert isinstance(received["DXO"], memoryview)  # a view, not a copy
        over_socket = to_dxo(received).data["w"]
        np.testing.assert_array_equal(over_socket, weights["w"])
        for array in (from_bytes, over_socket):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_hub_forwards_between_spokes_without_decoding(self, hub_and_spokes):
        hub, spokes = hub_and_spokes
        for spoke in spokes[:2]:
            spoke.register_peer("site-1")
            spoke.install_session_key("site-1", b"site-1" * 4)
        shareable = from_dxo(DXO(DataKind.WEIGHTS,
                                 data={"w": np.ones(1000, dtype=np.float32)}))
        spokes[0].send_shareable("site-1", "site-2", "gossip", shareable)
        sender, topic, received = spokes[1].receive("site-2", timeout=5.0)
        assert (sender, topic) == ("site-1", "gossip")
        np.testing.assert_array_equal(to_dxo(received).data["w"], 1.0)


class TestTeardown:
    def test_hub_close_with_eight_spokes_is_prompt(self, hub_and_spokes):
        """Regression: ``accept()`` is not woken by closing the listener from
        another thread, so ``close()`` used to sit out a 2 s join timeout."""
        hub, spokes = hub_and_spokes
        started = time.monotonic()
        hub.close()
        elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"hub close took {elapsed:.2f}s"
        assert not [thread.name for thread in hub._threads if thread.is_alive()]
        for spoke in spokes:
            spoke.close()
        # every helper thread is named bus-*; none of these nodes' survives
        threads = [thread for node in (hub, *spokes) for thread in node._threads]
        assert len(threads) >= 1 + 8 + 8  # accept + 8 hub readers + 8 uplink readers
        assert all(thread.name.startswith("bus-") for thread in threads)
        assert not [thread.name for thread in threads if thread.is_alive()]


class TestRouting:
    def test_a_claim_racing_a_dispatch_never_strands_the_message(self):
        """The hub queues a task for a site whose spoke has not announced
        itself yet (``FLServer.register_client`` made the inbox), and the
        spoke's claim flushes that inbox onto its link.  A claim landing
        between the dispatch's look-up and its put must still carry the task
        out: an inbox nobody reads would lose it with hub and spoke alive."""
        hub = SocketMessageBus()
        for name in ("server", "site-1"):
            hub.register_endpoint(name)
            hub.install_session_key(name, name.encode() * 4)
        ours, theirs = socket.socketpair()
        link = socket_transport._Link(ours)
        inbox = hub._queues["site-1"]
        put = inbox.put
        claim = threading.Thread(target=hub._claim_endpoints,
                                 args=(link, ["site-1"]))

        def put_while_claiming(item, *args, **kwargs):
            inbox.put = put
            claim.start()
            claim.join(timeout=0.5)  # it waits here unless put and look-up share a lock
            put(item, *args, **kwargs)

        inbox.put = put_while_claiming
        try:
            hub.send_shareable("server", "site-1", "task", from_dxo(
                DXO(DataKind.WEIGHTS, data={"w": np.ones(3, np.float32)})))
            claim.join(timeout=5.0)
            theirs.settimeout(5.0)
            frame_type, rest = read_frame(theirs)
            assert frame_type == FRAME_DATA
            assert decode_data_frame(rest).recipient == "site-1"
            assert hub.pending("site-1") == 0
        finally:
            link.close()
            theirs.close()
            hub.close()

    def test_a_frame_never_goes_back_over_the_link_it_came_on(self):
        """A spoke that sends a frame to an endpoint it claims itself gets
        nothing back: with no local inbox for it the hub drops the frame
        instead of echoing it over the link it arrived on."""
        hub = SocketMessageBus()
        spoke = socket.create_connection(hub.address, timeout=5.0)
        try:
            write_frame(spoke, socket_transport.encode_frame(
                socket_transport.FRAME_HELLO, b'{"endpoints": ["site-1"]}'))
            hub.wait_for_endpoints(["site-1"], timeout=5.0)
            write_frame(spoke, encode_data_frame(Message(
                sender="site-1", recipient="site-1", topic="task", body=b"x",
                signature="", headers={})))
            deadline = time.monotonic() + 5.0
            while hub._routing_drops.value == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert hub._routing_drops.value == 1
            spoke.settimeout(0.2)
            with pytest.raises(TimeoutError):
                spoke.recv(1)
        finally:
            spoke.close()
            hub.close()
