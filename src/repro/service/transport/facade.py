"""Error predicates shared by the per-endpoint client and the cluster client.

:class:`~repro.service.transport.client.RemoteShardClient` (one
endpoint) and :class:`~repro.service.cluster.client.ClusterClient`
(replicated endpoints with failover) build their retry policies from the
same two questions:

* :func:`is_stale_symptom` — does this failure look like a socket that
  went stale *between* requests (EOF, reset, errno)?  Safe to retry once
  on a fresh connection; every wire operation is idempotent.  Timeouts
  are excluded: a slow server is not a dead one, and re-sending doubles
  its work and the caller's wait.
* :func:`is_request_shaped` — would this failure reproduce anywhere
  (oversized frame, malformed payload)?  Never retried and never held
  against the peer: evicting a live replica over a bad request poisons
  the routing table.
"""

from __future__ import annotations

from .framing import ConnectionClosedError, FrameTimeoutError, ProtocolError

#: Default per-request socket timeout (seconds).
DEFAULT_TIMEOUT = 60.0


def is_stale_symptom(error: BaseException) -> bool:
    """True for failures a *reused* connection may cause all by itself.

    EOF, reset and raw socket errors are how an idle socket that the peer
    (or a middlebox) quietly dropped presents on next use — retrying once
    on a fresh connection is safe and routine.  A
    :class:`FrameTimeoutError` is excluded even though the socket is
    closed afterwards: the request *reached* a live, slow server.
    """
    return isinstance(error, (ConnectionClosedError, OSError)) and not isinstance(
        error, FrameTimeoutError
    )


def is_request_shaped(error: BaseException) -> bool:
    """True for failures the *request itself* causes on any peer.

    Deterministic protocol violations — an oversized frame, a malformed
    payload, a mis-sized batch reply — fail identically wherever they are
    sent, so neither the stale-retry nor replica failover applies.
    """
    return isinstance(error, ProtocolError) and not isinstance(error, ConnectionClosedError)


__all__ = [
    "DEFAULT_TIMEOUT",
    "is_request_shaped",
    "is_stale_symptom",
]
