"""Binary wire v2 + multiplexed transport tests.

Four layers of coverage:

* **Codec property tests** — seeded randomized payloads (nested
  containers, unicode entity names, explanation/path/triple results,
  error envelopes, empty batches) round-trip bit-identically through
  ``encode_binary``/``decode_binary``; equal explanations encode to
  *identical bytes* regardless of candidate-set iteration order (what
  the blob caches key on); malformed and oversized bodies are rejected
  with typed errors.
* **Blob splicing** — pre-encoded values splice into frames and decode
  back equal; the decode cache returns the cached object on a repeat.
* **Mux connection behaviour** — out-of-order completion over one
  socket, per-request deadlines that do NOT kill the connection, a peer
  death that fails every in-flight request, and a connection-level
  (id 0) error frame that fails them with its typed error.
* **Wire telemetry against a real server** — both directions' counters
  surface through the client and the server stats.
"""

import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.explanation import Explanation, MatchedPath, RelationPath
from repro.kg import Triple
from repro.service import (
    EXPLAIN,
    ExplanationService,
    RemoteShardClient,
    ServiceConfig,
    ServiceStats,
    ShardServer,
    merge_raw,
)
from repro.service.transport import (
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    MuxConnection,
    ProtocolError,
    decode_binary,
    encode_binary,
    encode_binary_value,
    encode_error,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from repro.service.transport.protocol import OP_PING, decode_error
from repro.service.transport.wire import BINARY_MAGIC, Blob, peek_request_id

UNICODE_NAMES = [
    "实体/甲",
    "エンティティ·β",
    "Ωμέγα-entité",
    "plain_ascii",
    "with space and \t tab",
    "",
    "🐍",
]


def _random_triple(rng: random.Random) -> Triple:
    return Triple(
        rng.choice(UNICODE_NAMES) + str(rng.randrange(40)),
        f"rel_{rng.randrange(8)}",
        rng.choice(UNICODE_NAMES) + str(rng.randrange(40)),
    )


def _random_path(rng: random.Random) -> RelationPath:
    triples = tuple(_random_triple(rng) for _ in range(rng.randrange(0, 4)))
    return RelationPath(
        source=rng.choice(UNICODE_NAMES) or "s",
        target=rng.choice(UNICODE_NAMES) or "t",
        triples=triples,
    )


def _random_explanation(rng: random.Random) -> Explanation:
    matched = [
        MatchedPath(
            path1=_random_path(rng),
            path2=_random_path(rng),
            similarity=rng.random(),
        )
        for _ in range(rng.randrange(0, 4))
    ]
    return Explanation(
        source=rng.choice(UNICODE_NAMES) or "src",
        target=rng.choice(UNICODE_NAMES) or "tgt",
        matched_paths=matched,
        candidate_triples1={_random_triple(rng) for _ in range(rng.randrange(0, 5))},
        candidate_triples2={_random_triple(rng) for _ in range(rng.randrange(0, 5))},
    )


def _random_value(rng: random.Random, depth: int = 0):
    kinds = ["none", "bool", "int", "float", "str", "triple", "path", "match", "expl"]
    if depth < 3:
        kinds += ["list", "dict"] * 2
    kind = rng.choice(kinds)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        return rng.choice(
            [0, 1, -1, 127, -128, 2**31, -(2**31), 2**62, rng.randrange(-(10**6), 10**6)]
        )
    if kind == "float":
        return rng.choice([0.0, -0.0, 1e-300, -1e300, 0.1 + 0.2, rng.random()])
    if kind == "str":
        return rng.choice(UNICODE_NAMES)
    if kind == "triple":
        return _random_triple(rng)
    if kind == "path":
        return _random_path(rng)
    if kind == "match":
        return MatchedPath(
            path1=_random_path(rng), path2=_random_path(rng), similarity=rng.random()
        )
    if kind == "expl":
        return _random_explanation(rng)
    if kind == "list":
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    return {
        rng.choice(UNICODE_NAMES) + str(i): _random_value(rng, depth + 1)
        for i in range(rng.randrange(0, 5))
    }


class TestBinaryCodec:
    @pytest.mark.parametrize("seed", range(20))
    def test_randomized_payloads_roundtrip_equal(self, seed):
        rng = random.Random(seed)
        payload = {
            "op": "batch",
            "results": [_random_value(rng) for _ in range(rng.randrange(0, 6))],
            "meta": _random_value(rng),
        }
        request_id = rng.randrange(0, 2**40)
        body = encode_binary(payload, request_id)
        assert body[0] == BINARY_MAGIC
        assert peek_request_id(body) == request_id
        decoded_id, decoded = decode_binary(body)
        assert decoded_id == request_id

        # Tuples legitimately come back as lists (JSON parity); compare
        # through a canonical form that erases only that difference.
        def canon(value):
            if isinstance(value, tuple) and not isinstance(value, Triple):
                return [canon(item) for item in value]
            if isinstance(value, list):
                return [canon(item) for item in value]
            if isinstance(value, dict):
                return {key: canon(item) for key, item in value.items()}
            if isinstance(value, RelationPath):
                return RelationPath(
                    source=value.source, target=value.target, triples=value.triples
                )
            return value

        assert canon(decoded) == canon(payload)

    def test_empty_batch_roundtrips(self):
        body = encode_binary({"op": "batch", "items": []})
        assert decode_binary(body) == (0, {"op": "batch", "items": []})

    def test_error_envelopes_roundtrip_as_their_own_type(self):
        for error in (FrameTooLargeError("too big"), ValueError("bad kind")):
            body = encode_binary({"error": encode_error(error)})
            _, decoded = decode_binary(body)
            revived = decode_error(decoded["error"])
            assert type(revived) is type(error)
            assert str(error) in str(revived)

    def test_equal_explanations_encode_to_identical_bytes(self):
        """Candidate sets iterate in arbitrary order; the encoder must
        serialise them canonically or the blob caches never hit."""
        rng = random.Random(11)
        explanation = _random_explanation(rng)
        while len(explanation.candidate_triples1) < 3:
            explanation = _random_explanation(rng)
        # A same-valued explanation whose sets were built in another order.
        reordered = Explanation(
            source=explanation.source,
            target=explanation.target,
            matched_paths=list(explanation.matched_paths),
            candidate_triples1=set(reversed(sorted(
                explanation.candidate_triples1,
                key=lambda t: (t.head, t.relation, t.tail),
            ))),
            candidate_triples2=set(explanation.candidate_triples2),
        )
        assert explanation == reordered
        assert encode_binary_value(explanation).data == encode_binary_value(reordered).data

    def test_oversized_binary_frame_rejected_at_encode_time(self):
        with pytest.raises(FrameTooLargeError):
            encode_binary({"blob": "x" * 2048}, 0, max_frame_bytes=1024)

    def test_wrong_version_rejected(self):
        body = bytearray(encode_binary({"op": "ping"}))
        body[1] = 9  # future wire version
        with pytest.raises(ProtocolError, match="version"):
            decode_binary(bytes(body))

    @pytest.mark.parametrize(
        "body",
        [
            b"",
            bytes([BINARY_MAGIC]),  # magic alone, no version
            encode_binary({"op": "ping"})[:-1],  # truncated value
            bytes([BINARY_MAGIC, 2, 0x80]),  # unterminated varint
            bytes([BINARY_MAGIC, 2, 0, 0, 0xFF]),  # unknown tag
        ],
    )
    def test_malformed_bodies_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            decode_binary(body)

    def test_non_object_root_rejected_like_json(self):
        blob = encode_binary_value([1, 2, 3])
        body = bytes([BINARY_MAGIC, 2, 0]) + blob.data
        with pytest.raises(ProtocolError, match="object"):
            decode_binary(body)

    def test_string_table_index_out_of_range_rejected(self):
        body = bytes([BINARY_MAGIC, 2, 0, 0, 0x05, 3])  # str #3 of an empty table
        with pytest.raises(ProtocolError, match="table"):
            decode_binary(body)


class TestBlobSplicing:
    def test_blob_splices_and_decodes_back_to_the_value(self):
        rng = random.Random(5)
        explanation = _random_explanation(rng)
        blob = encode_binary_value(explanation)
        body = encode_binary({"ok": blob, "plain": "x"}, request_id=7)
        request_id, decoded = decode_binary(body)
        assert request_id == 7
        assert decoded["ok"] == explanation
        assert decoded["plain"] == "x"

    def test_blob_cache_returns_the_cached_object(self):
        explanation = _random_explanation(random.Random(6))
        blob = encode_binary_value(explanation)
        cache: dict = {}
        _, first = decode_binary(encode_binary({"ok": blob}), cache)
        _, second = decode_binary(encode_binary({"ok": blob}), cache)
        assert first["ok"] == explanation
        assert second["ok"] is first["ok"]  # no second decode
        assert len(cache) == 1

    def test_same_value_blobs_share_one_cache_entry(self):
        """Deterministic bytes mean two independently-encoded equal values
        land on the same cache slot."""
        explanation = _random_explanation(random.Random(8))
        copy = Explanation(
            source=explanation.source,
            target=explanation.target,
            matched_paths=list(explanation.matched_paths),
            candidate_triples1=set(explanation.candidate_triples1),
            candidate_triples2=set(explanation.candidate_triples2),
        )
        cache: dict = {}
        _, first = decode_binary(
            encode_binary({"ok": encode_binary_value(explanation)}), cache
        )
        _, second = decode_binary(
            encode_binary({"ok": encode_binary_value(copy)}), cache
        )
        assert len(cache) == 1
        assert second["ok"] is first["ok"]

    def test_only_codec_blobs_are_spliceable(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_binary({"ok": b"raw bytes are not a Blob"})
        assert isinstance(encode_binary_value("x"), Blob)


# ----------------------------------------------------------------------
# Mux connection behaviour against scripted peers
# ----------------------------------------------------------------------
def _mux_pair():
    left, right = socket.socketpair()
    return MuxConnection(left), right


class TestMuxConnection:
    def test_out_of_order_responses_reach_their_callers(self):
        conn, peer = _mux_pair()

        def answer_in_reverse():
            requests = []
            for _ in range(2):
                body = recv_frame_raw(peer)
                requests.append(decode_binary(body))
            for request_id, payload in reversed(requests):
                response = encode_binary({"ok": {"echo": payload["n"]}}, request_id)
                send_raw_frame(peer, frame_raw(response))

        responder = threading.Thread(target=answer_in_reverse, daemon=True)
        responder.start()
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(conn.request, {"op": OP_PING, "n": n}, 10.0)
                    for n in (1, 2)
                ]
                results = [future.result(timeout=30) for future in futures]
            assert [r["ok"]["echo"] for r in results] == [1, 2]
            responder.join(timeout=10)
        finally:
            conn.close()
            peer.close()

    def test_deadline_fails_the_request_but_not_the_connection(self):
        conn, peer = _mux_pair()
        try:
            first_body = []

            def stall_then_serve():
                first_body.append(decode_binary(recv_frame_raw(peer)))
                # Never answer the first request; serve the second promptly.
                request_id, payload = decode_binary(recv_frame_raw(peer))
                send_raw_frame(
                    peer, frame_raw(encode_binary({"ok": {"echo": payload["n"]}}, request_id))
                )

            responder = threading.Thread(target=stall_then_serve, daemon=True)
            responder.start()
            with pytest.raises(FrameTimeoutError):
                conn.request({"op": OP_PING, "n": 1}, timeout=0.3)
            assert not conn.dead  # a slow peer is slow, not gone
            assert conn.request({"op": OP_PING, "n": 2}, 10.0)["ok"]["echo"] == 2
            responder.join(timeout=10)
        finally:
            conn.close()
            peer.close()

    def test_peer_death_fails_every_inflight_request(self):
        conn, peer = _mux_pair()
        try:
            reader = threading.Thread(
                target=lambda: [recv_frame_raw(peer) for _ in range(2)], daemon=True
            )
            reader.start()
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(conn.request, {"op": OP_PING, "n": n}, 30.0)
                    for n in (1, 2)
                ]
                time.sleep(0.2)  # let both requests go in flight
                reader.join(timeout=10)
                peer.close()  # the peer dies with two requests pending
                for future in futures:
                    with pytest.raises(ConnectionClosedError):
                        future.result(timeout=30)
            assert conn.dead
            with pytest.raises(ConnectionClosedError):
                conn.request({"op": OP_PING}, 1.0)
        finally:
            conn.close()

    def test_connection_error_frame_fails_every_inflight_request_typed(self):
        """An id-0 frame is the server's connection-level error: every
        in-flight request fails with its typed error, not a generic
        connection-closed one."""
        conn, peer = _mux_pair()
        try:

            def read_two_then_refuse():
                for _ in range(2):
                    recv_frame_raw(peer)
                error = encode_error(FrameTooLargeError("too big"))
                send_raw_frame(peer, frame_raw(encode_binary({"error": error}, 0)))

            responder = threading.Thread(target=read_two_then_refuse, daemon=True)
            responder.start()
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(conn.request, {"op": OP_PING, "n": n}, 30.0)
                    for n in (1, 2)
                ]
                for future in futures:
                    with pytest.raises(FrameTooLargeError, match="too big"):
                        future.result(timeout=30)
            responder.join(timeout=10)
            assert conn.dead
        finally:
            conn.close()
            peer.close()

    def test_close_fails_pending_and_refuses_new_requests(self):
        conn, peer = _mux_pair()
        try:
            swallow = threading.Thread(target=lambda: recv_frame_raw(peer), daemon=True)
            swallow.start()
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(conn.request, {"op": OP_PING}, 30.0)
                time.sleep(0.2)
                conn.close()
                with pytest.raises(ConnectionClosedError):
                    future.result(timeout=30)
            swallow.join(timeout=10)
        finally:
            peer.close()


# ----------------------------------------------------------------------
# Telemetry against a real server
# ----------------------------------------------------------------------
@pytest.fixture()
def running_server(fitted_model, service_dataset):
    """A started service behind a loopback server."""
    service = ExplanationService(
        fitted_model, service_dataset, ServiceConfig(num_workers=2)
    ).start()
    server = ShardServer(service, shard_id=0, num_shards=1)
    address = server.bind("127.0.0.1:0")
    server.start_in_thread()
    yield server, address
    server.stop()
    service.close(drain=False)


def predicted_pairs(model, limit=20):
    return sorted(model.predict().pairs)[:limit]


class TestWireTelemetry:
    def test_client_counters_track_both_directions(self, running_server, fitted_model):
        _, address = running_server
        pair = predicted_pairs(fitted_model, limit=1)[0]
        client = RemoteShardClient(address, timeout=30)
        try:
            client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
            raw = client.wire_counters.raw()
            assert raw["frames_sent"] >= 1
            assert raw["frames_received"] >= 1
            assert raw["bytes_sent"] > 0
            assert raw["bytes_received"] > 0
            assert raw["encode_ns"] > 0
            assert raw["decode_ns"] > 0
        finally:
            client.close()

    def test_server_stats_carry_wire_counters(self, running_server, fitted_model):
        server, address = running_server
        pair = predicted_pairs(fitted_model, limit=1)[0]
        client = RemoteShardClient(address, timeout=30)
        try:
            client.call({"op": EXPLAIN, "source": pair[0], "target": pair[1]})
            wire = server.service.stats.raw()["wire"]
            assert wire["frames_received"] >= 1
            assert wire["bytes_received"] > 0
        finally:
            client.close()

    def test_merge_raw_sums_nested_wire_dicts(self):
        first, second = ServiceStats(), ServiceStats()
        first.wire.record_sent(100, 7)
        second.wire.record_sent(50, 3)
        second.wire.record_received(20, 1)
        merged = merge_raw([first.raw(), second.raw()])
        assert merged["wire"]["bytes_sent"] == 150
        assert merged["wire"]["frames_sent"] == 2
        assert merged["wire"]["encode_ns"] == 10
        assert merged["wire"]["bytes_received"] == 20
