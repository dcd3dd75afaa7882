"""Wire protocol of the graph service: one JSON object per line.

Requests and responses are UTF-8 JSON documents, newline-terminated, one
per line (the classic line-delimited-JSON framing — trivially scriptable
with ``nc`` and language-agnostic).  Every response carries ``ok`` plus
either ``result`` or a structured ``error`` with a stable ``code``; the
request's ``id`` (any JSON scalar) is echoed back so clients can
pipeline.

Request shapes::

    {"op": "run", "graph": "web", "algorithm": "bfs", "source": 3}
    {"op": "run", "graph": "web", "algorithm": "sssp", "source": 0, "id": 7}
    {"op": "run", "graph": "web", "algorithm": "pagerank",
     "params": {"damping": 0.85, "tol": 1e-8}}
    {"op": "health"}
    {"op": "stats"}
    {"op": "graphs"}

Error codes (the protocol test suite pins these): ``line-too-long``,
``bad-json``, ``bad-request``, ``unknown-op``, ``unknown-graph``,
``unknown-algorithm``, ``bad-source``, ``bad-params``, ``timeout``,
``cancelled``, ``internal``, ``shutting-down``.

Validation is **eager and total**: a request that reaches the admission
queue is guaranteed well-formed, so the execution path never parses.
"""

from __future__ import annotations

import json
import math

from ..config import Config, current as _config

__all__ = [
    "ALGORITHMS",
    "DEFAULT_MAX_LINE",
    "ProtocolError",
    "RunRequest",
    "max_line_bytes",
    "parse_request",
    "encode_response",
    "error_response",
    "ok_response",
]

#: request-line size cap (bytes), before parsing — an unframed client
#: (or a binary blob aimed at the port) cannot balloon server memory
DEFAULT_MAX_LINE = Config.service_max_line

#: algorithm name -> whether it takes a per-request ``source`` vertex.
#: Source-parameterised algorithms are the fusable ones (k sources
#: become one multi-source run); the rest are whole-graph computations
#: that batching deduplicates instead.
ALGORITHMS = {
    "bfs": True,
    "sssp": True,
    "pagerank": False,
    "components": False,
    "triangles": False,
}

_VALID_PARAMS = {
    "pagerank": {"damping": float, "tol": float, "max_iters": int},
}


class ProtocolError(Exception):
    """A structured protocol-level failure: ``code`` is the stable wire
    identifier, ``str()`` the human-readable detail."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def max_line_bytes() -> int:
    """``$PYGB_SERVICE_MAX_LINE`` (bytes), default 1 MiB."""
    return _config().service_max_line


class RunRequest:
    """A validated ``{"op": "run"}`` request.

    ``batch_key`` groups compatible requests for the admission queue:
    same graph + same algorithm + same (canonicalised) params may fuse
    into one run.  The per-request ``source`` deliberately stays out of
    the key — distinct sources are exactly what multi-source fusion
    merges.
    """

    __slots__ = ("id", "graph", "algorithm", "source", "params", "batch_key")

    def __init__(self, req_id, graph: str, algorithm: str, source, params: dict):
        self.id = req_id
        self.graph = graph
        self.algorithm = algorithm
        self.source = source
        self.params = params
        self.batch_key = (graph, algorithm, json.dumps(params, sort_keys=True))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src = f", source={self.source}" if self.source is not None else ""
        return f"RunRequest({self.algorithm} on {self.graph!r}{src})"


def _validate_params(algorithm: str, raw) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError("bad-params", "'params' must be a JSON object")
    allowed = _VALID_PARAMS.get(algorithm, {})
    out = {}
    for key, value in raw.items():
        if key not in allowed:
            raise ProtocolError(
                "bad-params", f"unknown parameter {key!r} for {algorithm}"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("bad-params", f"parameter {key!r} must be a number")
        try:
            # json reads Infinity and NaN, and an int may not fit a float
            out[key] = allowed[key](value)
            if not math.isfinite(out[key]):
                raise ValueError
        except (OverflowError, ValueError):
            raise ProtocolError(
                "bad-params", f"parameter {key!r} must be a finite number"
            ) from None
    return out


def parse_request(line: bytes | str) -> dict:
    """Decode and validate one request line into a plain dict:
    ``{"op": "health"|"stats"|"graphs"}`` pass through, ``run`` becomes
    ``{"op": "run", "request": RunRequest}``.  Raises
    :class:`ProtocolError` on anything malformed."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("bad-json", f"request line is not UTF-8: {exc}") from None
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError("bad-json", f"request line is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = doc.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "request needs a string 'op' field")
    req_id = doc.get("id")
    if req_id is not None and not isinstance(req_id, (str, int, float)):
        raise ProtocolError("bad-request", "'id' must be a JSON scalar")
    if op in ("health", "stats", "graphs"):
        return {"op": op, "id": req_id}
    if op != "run":
        raise ProtocolError("unknown-op", f"unknown op {op!r}")
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise ProtocolError("bad-request", "'run' needs a string 'graph' field")
    algorithm = doc.get("algorithm")
    if not isinstance(algorithm, str):
        raise ProtocolError("bad-request", "'run' needs a string 'algorithm' field")
    if algorithm not in ALGORITHMS:
        raise ProtocolError(
            "unknown-algorithm",
            f"unknown algorithm {algorithm!r} "
            f"(available: {', '.join(sorted(ALGORITHMS))})",
        )
    source = doc.get("source")
    if ALGORITHMS[algorithm]:
        if isinstance(source, bool) or not isinstance(source, int):
            raise ProtocolError(
                "bad-source", f"{algorithm} needs an integer 'source' vertex"
            )
    elif source is not None:
        raise ProtocolError(
            "bad-source", f"{algorithm} does not take a 'source' vertex"
        )
    params = _validate_params(algorithm, doc.get("params"))
    return {
        "op": "run",
        "id": req_id,
        "request": RunRequest(req_id, graph, algorithm, source, params),
    }


def ok_response(req_id, result: dict) -> dict:
    resp = {"ok": True, "result": result}
    if req_id is not None:
        resp["id"] = req_id
    return resp


def error_response(req_id, code: str, message: str) -> dict:
    resp = {"ok": False, "error": {"code": code, "message": message}}
    if req_id is not None:
        resp["id"] = req_id
    return resp


def encode_response(resp: dict) -> bytes:
    """Response dict -> one wire line.  ``sort_keys`` makes the byte
    stream canonical, so bit-identity checks can compare raw lines."""
    return json.dumps(resp, sort_keys=True).encode("utf-8") + b"\n"
