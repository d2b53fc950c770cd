"""Wire protocol: newline-delimited JSON-RPC with server push.

Every message is one JSON document on one line (UTF-8, ``\\n``
terminated). Three shapes exist:

* **Request** (client -> server): ``{"id": <int>, "method": <str>,
  "params": {...}}``. ``params`` may be omitted.
* **Response** (server -> client): ``{"id": <int>, "result": ...}`` on
  success, ``{"id": <int>, "error": {"code": <str>, "message": <str>,
  "data": {...}}}`` on failure. Exactly one response per request, in
  request order per connection.
* **Notification** (server -> client, no ``id``): ``{"method": <str>,
  "params": {...}}`` — used for streamed trace segments
  (``trace.segment``) and asynchronous job completion
  (``kernel.complete``).

Every ``trace.segment`` notification is a **binary frame**: the
notification line lists one header per segment —
:meth:`Segment.header() <repro.trace.columnar.Segment.header>` plus the
payload's byte ``length`` — and the raw column bytes of each listed
segment follow the line immediately, concatenated in order. The frame
is self-describing; :meth:`Segment.from_payload
<repro.trace.columnar.Segment.from_payload>` rebuilds each segment.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Structured error codes carried in the response ``error.code`` field.
E_PARSE = "parse_error"           # line was not a valid request document
E_UNKNOWN_METHOD = "unknown_method"
E_BAD_REQUEST = "bad_request"     # missing/ill-typed params
E_NO_SESSION = "no_session"       # method needs session.open first
E_SESSION_LIMIT = "session_limit"
E_BUSY = "busy"                   # queue full: structured backpressure
E_QUOTA = "quota"                 # per-session resource quota exceeded
E_COMPILE = "compile_error"       # frontend diagnostics (line:column)
E_NOT_FOUND = "not_found"         # unknown program/job/buffer/path
E_INTERNAL = "internal"           # unexpected server-side failure


class ServerError(ReproError):
    """A structured protocol error (maps to a response ``error`` object)."""

    def __init__(self, code: str, message: str,
                 data: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.code = code
        self.data = dict(data or {})

    def to_wire(self) -> Dict[str, Any]:
        """The response ``error`` object for this failure."""
        wire: Dict[str, Any] = {"code": self.code, "message": str(self)}
        if self.data:
            wire["data"] = self.data
        return wire


# -- framing -----------------------------------------------------------------

def encode(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire line (newline included)."""
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def encode_request(request_id: int, method: str,
                   params: Optional[Dict[str, Any]] = None) -> bytes:
    """Build one request line."""
    message: Dict[str, Any] = {"id": request_id, "method": method}
    if params:
        message["params"] = params
    return encode(message)


def encode_response(request_id: Optional[int], result: Any) -> bytes:
    """Build one success-response line."""
    return encode({"id": request_id, "result": result})


def encode_error(request_id: Optional[int], error: ServerError) -> bytes:
    """Build one error-response line."""
    return encode({"id": request_id, "error": error.to_wire()})


def encode_notification(method: str, params: Dict[str, Any]) -> bytes:
    """Build one server-push notification line (no ``id``)."""
    return encode({"method": method, "params": params})


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into its message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServerError(E_PARSE, f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ServerError(E_PARSE, "message must be a JSON object")
    return message


# -- addresses ---------------------------------------------------------------

def parse_address(address: str) -> Tuple[str, Any]:
    """Parse ``"host:port"`` or ``"unix:/path"`` into ``(kind, value)``.

    Returns ``("tcp", (host, port))`` or ``("unix", path)``.
    """
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ServerError(E_BAD_REQUEST, "empty unix socket path")
        return "unix", path
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ServerError(
            E_BAD_REQUEST,
            f"address {address!r} is not 'host:port' or 'unix:/path'")
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ServerError(E_BAD_REQUEST,
                          f"port {port!r} is not an integer") from None


# -- trace segment frames ----------------------------------------------------

def encode_segment_frame(params: Dict[str, Any], segments) -> bytes:
    """One ``trace.segment`` frame: notification line + raw payloads.

    ``params`` gains one header per segment,
    ``dict(segment.header(), length=n)``, and the ``n`` column bytes of
    each segment follow the line in listing order. The caller must write
    the returned bytes atomically with respect to other messages on the
    connection.
    """
    payloads = [segment.payload_bytes() for segment in segments]
    headers = [dict(segment.header(), length=len(payload))
               for segment, payload in zip(segments, payloads)]
    return (encode_notification("trace.segment",
                                dict(params, segments=headers))
            + b"".join(payloads))


def read_segment_frame(params: Dict[str, Any], read) -> List[Any]:
    """The segments of one frame whose notification line gave ``params``.

    ``read(n)`` must return the next ``n`` payload bytes of the stream.
    """
    from repro.trace.columnar import Segment

    return [Segment.from_payload(header, read(int(header["length"])))
            for header in params.get("segments", ())]
