"""Remote shard transport: process-per-shard serving over stream sockets.

This package puts the first process boundary into the service stack.  The
in-process :class:`~repro.service.sharding.ShardedExplanationService`
already partitions the pair space into CRC-32-stable shard groups; here
each shard group moves into its own server process and the client facade
speaks to them over a thin wire protocol.  The pieces, bottom-up:

* :mod:`~repro.service.transport.framing` — length-prefixed frames over
  TCP/Unix sockets, with oversized-frame rejection and typed
  connection-failure errors.
* :mod:`~repro.service.transport.wire` — the binary v2 body codec: TLV
  values over an interned string table, pre-encoded blob splicing for
  batch responses, deterministic bytes per payload, a correlation id in
  every header.
* :mod:`~repro.service.transport.protocol` — operation names, result
  type checks and the error mapping that carries backpressure/deadline
  semantics across the wire.
* :mod:`~repro.service.transport.mux` — :class:`MuxConnection`, one
  selectors-driven multiplexed connection per endpoint: request-id
  correlation, out-of-order completion, per-request deadlines.
* :mod:`~repro.service.transport.facade` — the stale-socket and
  request-shaped error predicates both retry policies are built from.
* :mod:`~repro.service.transport.server` — :class:`ShardServer`, hosting
  one shard group's :class:`~repro.service.service.ExplanationService`
  behind a socket (``python -m repro.service serve``).
* :mod:`~repro.service.transport.client` — :class:`RemoteShardClient`,
  the per-endpoint client (one mux connection, stale-socket reconnect)
  that
  :class:`~repro.service.cluster.client.ClusterClient` is built on.
* :mod:`~repro.service.transport.cluster` — serving snapshots
  (:func:`write_snapshot` / :func:`read_snapshot`) and
  :class:`ShardProcess`, one spawned ``serve`` subprocess; the
  launcher itself is :class:`~repro.service.cluster.local.ReplicatedLocalCluster`.

See ``docs/ARCHITECTURE.md`` for where this layer sits in the stack and
``docs/OPERATIONS.md`` for the serving CLI.
"""

from .client import RemoteShardClient
from .cluster import ShardProcess, read_snapshot, write_snapshot
from .facade import is_request_shaped, is_stale_symptom
from .framing import (
    DEFAULT_MAX_FRAME_BYTES,
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
    frame_raw,
    recv_frame_raw,
    send_raw_frame,
)
from .mux import MuxConnection
from .protocol import (
    PROTOCOL_VERSION,
    decode_error,
    decode_value,
    encode_error,
)
from .server import ShardServer, parse_listen_address
from .wire import decode_binary, encode_binary, encode_binary_value

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ConnectionClosedError",
    "FrameTimeoutError",
    "FrameTooLargeError",
    "MuxConnection",
    "ProtocolError",
    "RemoteShardClient",
    "ShardProcess",
    "ShardServer",
    "decode_binary",
    "decode_error",
    "decode_value",
    "encode_binary",
    "encode_binary_value",
    "encode_error",
    "frame_raw",
    "is_request_shaped",
    "is_stale_symptom",
    "parse_listen_address",
    "read_snapshot",
    "recv_frame_raw",
    "send_raw_frame",
    "write_snapshot",
]
