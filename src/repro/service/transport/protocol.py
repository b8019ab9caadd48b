"""Wire protocol: operation names, result checks, and error mapping.

Every request frame is ``{"op": <name>, ...}``; every response frame is
either ``{"ok": <value>, ...}`` or ``{"error": {"type": <name>,
"message": <str>}}``.  The module owns the two halves that both ends must
agree on:

* **Results** — the binary codec ships explain results as native
  :class:`~repro.core.explanation.Explanation` objects, confidences as
  exact IEEE doubles and verdicts as booleans, so a remote result
  compares ``==`` (bit-identical) to the in-process one;
  :func:`decode_value` checks each result has its kind's type.
* **Error mapping** — the service's typed errors
  (:class:`ServiceOverloadedError` backpressure,
  :class:`DeadlineExceededError`, :class:`ServiceClosedError`) cross the
  wire by class name and are re-raised client-side as the same type, so
  remote callers keep the exact retry semantics of in-process callers.
  Anything unmapped resurfaces as
  :class:`~repro.service.errors.RemoteOperationError` with the original
  type name preserved.
"""

from __future__ import annotations

from ...core.explanation import Explanation
from ..errors import (
    DeadlineExceededError,
    RemoteOperationError,
    RemoteTransportError,
    ReplicaBehindError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..service import MutationSpec
from .framing import (
    ConnectionClosedError,
    FrameTimeoutError,
    FrameTooLargeError,
    ProtocolError,
)

#: Protocol revision; bumped on incompatible frame-schema changes so a peer
#: of another revision is refused at connect time rather than misread.
#: Revision 2: binary bodies only, a correlation id on every frame.
#: Revision 3: the ``stats`` payload carries counters and histograms only
#: (no per-request ``latencies`` list).
PROTOCOL_VERSION = 3

# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
#: Single-pair service operations (mirror ``ExplanationService.submit`` kinds).
OP_EXPLAIN = "explain"
OP_CONFIDENCE = "confidence"
OP_VERIFY = "verify"
#: Multi-pair submission driving the server-side batcher in one exchange.
OP_BATCH = "batch"
#: Topology / liveness probe: shard id, shard count, generation token.
OP_PING = "ping"
#: Raw + derived telemetry (the ``--stats-json`` equivalent over the wire).
OP_STATS = "stats"
#: Sorted predicted pairs of the shard's model (workload construction).
OP_PAIRS = "pairs"
#: Drop the shard's result cache (generation fan-out from the client).
OP_INVALIDATE = "invalidate"
#: Pull the server's span ring (optionally filtered to one ``trace_id``)
#: so a client can stitch a fleet-wide per-request timeline.
OP_TRACE = "trace"
#: Apply an ordered batch of KG mutations (blast-radius scoped cache
#: invalidation server-side).
OP_MUTATE = "mutate"
#: Ask the server process to exit after responding.
OP_SHUTDOWN = "shutdown"

#: Operation kinds a request/batch item may carry.
REQUEST_KINDS = (OP_EXPLAIN, OP_CONFIDENCE, OP_VERIFY)

# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
#: Exception classes that cross the wire under their own name.
_ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        ServiceError,
        ServiceOverloadedError,
        ReplicaBehindError,
        ServiceClosedError,
        DeadlineExceededError,
        RemoteTransportError,
        ProtocolError,
        FrameTooLargeError,
        FrameTimeoutError,
        ConnectionClosedError,
        ValueError,
        KeyError,
    )
}


def encode_error(error: BaseException) -> dict:
    """Encode an exception into its wire form ``{"type", "message"}``."""
    return {"type": type(error).__name__, "message": str(error)}


def decode_error(payload: dict) -> Exception:
    """Rebuild the client-side exception for a wire error payload.

    Mapped types come back as themselves; anything else becomes a
    :class:`RemoteOperationError` carrying the remote type name.
    """
    name = payload.get("type", "Exception")
    message = payload.get("message", "")
    mapped = _ERROR_TYPES.get(name)
    if mapped is None:
        return RemoteOperationError(name, message)
    return mapped(message)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
#: The Python type every result kind decodes to.
_RESULT_TYPES: dict[str, type] = {
    OP_EXPLAIN: Explanation,
    OP_CONFIDENCE: float,
    OP_VERIFY: bool,
}


def decode_mutations(payload: object) -> list[MutationSpec]:
    """Check a mutation batch as the binary codec delivered it.

    The codec ships :class:`MutationSpec` objects natively (TLV tag
    ``0x0E``); anything else raises ``ValueError`` so the server answers
    with a typed error frame instead of dying mid-request.
    """
    if not isinstance(payload, list):
        raise ValueError("mutations must be a list")
    for item in payload:
        if not isinstance(item, MutationSpec):
            raise ValueError(f"malformed mutation {item!r}")
    return payload


def decode_value(kind: str, payload):
    """Check one decoded operation result against its kind.

    The codec already rebuilt the value; a result of the wrong type (a
    malformed or mis-routed reply) raises :class:`ProtocolError` instead
    of reaching the caller.
    """
    expected = _RESULT_TYPES.get(kind)
    if expected is None:
        raise ValueError(f"unknown result kind {kind!r}")
    if not isinstance(payload, expected):
        raise ProtocolError(
            f"{kind} result must be {expected.__name__}, got {type(payload).__name__}"
        )
    return payload
