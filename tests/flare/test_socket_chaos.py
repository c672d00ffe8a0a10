"""Chaos over sockets: frame-codec fuzzing + fault parity across fabrics.

Two layers of hostility:

1. **Wire-level** — malformed length prefixes, bit-flipped payloads and
   mid-frame disconnects must surface as :class:`TransportError` (or die at
   HMAC verification as :class:`SignatureError`) and cost at most the
   offending connection.  Nothing here may hang or kill the node.
2. **Plan-level** — the seeded :class:`FaultPlan` scenarios from the
   in-memory chaos suite, replayed over real TCP with process-per-client
   runners.  Fault decisions hash the per-sender message-id streams, which
   are identical on both fabrics, so quorum and dropped-site behaviour must
   match round for round.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.flare import FaultPlan, FLJob, Message, SimulatorRunner, TransportError
from repro.flare.socket_transport import (
    FRAME_DATA,
    MAX_FRAME_BYTES,
    SocketMessageBus,
    decode_data_frame,
    encode_data_frame,
    encode_frame,
    read_frame,
)

from .helpers import ToyLearner, toy_weights

pytestmark = pytest.mark.chaos


def sample_message() -> Message:
    return Message(sender="site-1", recipient="server", topic="task:result",
                   body=b"\x05\x00\x00\x00{...}payload-bytes",
                   signature="ab" * 32,
                   headers={"__msg_id__": "site-1:0", "__attempt__": 0})


def frame_bytes(message: Message) -> bytes:
    """A DATA frame as one string: the join of the one builder's parts."""
    return b"".join(encode_data_frame(message))


def frame_pipe():
    """A connected socket pair: (writer, reader)."""
    writer, reader = socket.socketpair()
    writer.settimeout(5.0)
    reader.settimeout(5.0)
    return writer, reader


class TestFrameCodecFuzz:
    def test_roundtrip(self):
        message = sample_message()
        frame = frame_bytes(message)
        writer, reader = frame_pipe()
        try:
            writer.sendall(frame)
            frame_type, rest = read_frame(reader)
            assert frame_type == FRAME_DATA
            decoded = decode_data_frame(rest)
            assert decoded == message
        finally:
            writer.close()
            reader.close()

    def test_truncated_length_prefix(self):
        writer, reader = frame_pipe()
        try:
            writer.sendall(b"\x07\x00")  # 2 of 4 prefix bytes
            writer.close()
            with pytest.raises(TransportError, match="mid-frame"):
                read_frame(reader)
        finally:
            reader.close()

    def test_oversized_length_prefix(self):
        writer, reader = frame_pipe()
        try:
            writer.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            with pytest.raises(TransportError, match="cap"):
                read_frame(reader)
        finally:
            writer.close()
            reader.close()

    def test_zero_length_frame(self):
        writer, reader = frame_pipe()
        try:
            writer.sendall(struct.pack("<I", 0))
            with pytest.raises(TransportError, match="zero-length"):
                read_frame(reader)
        finally:
            writer.close()
            reader.close()

    def test_unknown_frame_type(self):
        writer, reader = frame_pipe()
        try:
            writer.sendall(struct.pack("<I", 1) + b"\xee")
            with pytest.raises(TransportError, match="unknown frame type"):
                read_frame(reader)
        finally:
            writer.close()
            reader.close()

    def test_mid_frame_disconnect(self):
        frame = frame_bytes(sample_message())
        writer, reader = frame_pipe()
        try:
            writer.sendall(frame[:len(frame) // 2])
            writer.close()
            with pytest.raises(TransportError, match="mid-frame"):
                read_frame(reader)
        finally:
            reader.close()

    def test_clean_eof_between_frames_is_none(self):
        writer, reader = frame_pipe()
        try:
            writer.sendall(b"".join(encode_frame(FRAME_DATA, b"x")))
            writer.close()
            assert read_frame(reader) is not None
            assert read_frame(reader) is None
        finally:
            reader.close()

    def test_bit_flip_fuzz_never_escapes(self):
        """Any single-byte corruption decodes to a Message or TransportError.

        A flip that survives decoding produces a different envelope whose
        HMAC cannot verify, so either way the corruption is contained.
        """
        message = sample_message()
        frame = frame_bytes(message)
        rest = frame[5:]  # after length prefix + type byte
        rng = np.random.default_rng(29)
        positions = set(rng.integers(0, len(rest), size=200).tolist())
        positions.update(range(min(12, len(rest))))  # always hit the header len
        survived = 0
        for position in positions:
            for bit in (0x01, 0x80):
                mutated = (rest[:position]
                           + bytes([rest[position] ^ bit])
                           + rest[position + 1:])
                try:
                    decoded = decode_data_frame(mutated)
                except TransportError:
                    continue
                survived += 1
                assert decoded != message or mutated == rest
        assert survived > 0  # body flips decode fine and die at the HMAC

    def test_truncation_fuzz_never_escapes(self):
        frame = frame_bytes(sample_message())
        rest = frame[5:]
        for cut in range(0, len(rest), 7):
            try:
                decode_data_frame(rest[:cut])
            except TransportError:
                pass  # the only acceptable failure mode


class TestHubSurvivesHostileConnections:
    def test_garbage_connection_costs_only_itself(self):
        hub = SocketMessageBus()
        try:
            hub.register_endpoint("server")
            hub.install_session_key("server", b"k" * 32)
            before = int(hub.metrics.counter("transport.frame_errors").value)

            hostile = socket.create_connection(hub.address, timeout=5.0)
            hostile.sendall(struct.pack("<I", MAX_FRAME_BYTES + 7) + b"junk")
            hostile.close()

            # a fresh, well-behaved spoke still joins and exchanges traffic
            spoke = SocketMessageBus.connect(hub.address)
            try:
                spoke.register_endpoint("site-1")
                spoke.install_session_key("site-1", b"c" * 32)
                spoke.register_peer("server")
                spoke.install_session_key("server", b"k" * 32)
                hub.register_peer("site-1")
                hub.install_session_key("site-1", b"c" * 32)
                hub.wait_for_endpoints(["site-1"], timeout=10.0)
                from repro.flare import Shareable
                spoke.send_shareable("site-1", "server", "task:result",
                                     Shareable({"ok": True}))
                sender, topic, shareable = hub.receive("server", timeout=5.0)
                assert (sender, topic) == ("site-1", "task:result")
                assert shareable["ok"] is True
            finally:
                spoke.close()
            deadline_errors = int(
                hub.metrics.counter("transport.frame_errors").value)
            assert deadline_errors >= before + 1
        finally:
            hub.close()

    def test_mid_frame_disconnect_against_live_hub(self):
        hub = SocketMessageBus()
        try:
            partial = frame_bytes(sample_message())[:9]
            hostile = socket.create_connection(hub.address, timeout=5.0)
            hostile.sendall(partial)
            hostile.close()
            # reader thread absorbs the error; the node keeps accepting
            probe = socket.create_connection(hub.address, timeout=5.0)
            probe.close()
        finally:
            hub.close()


class TestFaultParityAcrossFabrics:
    """Same plan + same seed ⇒ same per-round outcomes on both fabrics."""

    def run_both(self, tmp_path, plan: FaultPlan, **job_kw):
        job_kw.setdefault("num_rounds", 3)
        job_kw.setdefault("min_clients", 2)
        job_kw.setdefault("result_timeout", 10.0)
        job_kw.setdefault("max_failed_rounds", 1)
        job = FLJob(name="parity", initial_weights=toy_weights(0.0),
                    learner_factory=lambda name: ToyLearner(name, delta=1.0),
                    **job_kw)
        results = {}
        for transport in ("memory", "socket"):
            runner = SimulatorRunner(replace(job, transport=transport), n_clients=4,
                                     seed=0, run_dir=tmp_path / transport,
                                     fault_plan=plan)
            results[transport] = runner.run()
        return results["memory"], results["socket"]

    def assert_round_parity(self, memory_result, socket_result):
        memory_stats, socket_stats = memory_result.stats, socket_result.stats
        assert memory_stats.num_rounds == socket_stats.num_rounds
        for memory_round, socket_round in zip(memory_stats.rounds,
                                              socket_stats.rounds):
            assert memory_round.quorum_met == socket_round.quorum_met
            assert sorted(memory_round.dropped_clients) == \
                sorted(socket_round.dropped_clients)
        for key in memory_result.final_weights:
            np.testing.assert_array_equal(memory_result.final_weights[key],
                                          socket_result.final_weights[key])

    def test_crashed_site_dropped_identically(self, tmp_path):
        plan = FaultPlan(seed=7, crashed_clients=("site-3",))
        memory_result, socket_result = self.run_both(tmp_path, plan)
        self.assert_round_parity(memory_result, socket_result)
        assert socket_result.stats.dropped_clients == ["site-3"]

    def test_lossy_links_same_quorum_behaviour(self, tmp_path):
        plan = FaultPlan(seed=3, drop_prob=0.2, duplicate_prob=0.1)
        memory_result, socket_result = self.run_both(tmp_path, plan)
        self.assert_round_parity(memory_result, socket_result)

    def test_stragglers_and_delays_same_outcome(self, tmp_path):
        plan = FaultPlan(seed=5, delay_prob=0.3, max_delay=0.05,
                         stragglers={"site-2": 0.05})
        memory_result, socket_result = self.run_both(tmp_path, plan)
        self.assert_round_parity(memory_result, socket_result)
        assert all(record.quorum_met for record in socket_result.stats.rounds)
