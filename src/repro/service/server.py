"""The graph service front end: a threaded line-JSON-over-TCP server.

One daemon thread per connection reads newline-framed JSON requests
(capped at ``$PYGB_SERVICE_MAX_LINE`` bytes), validates them through
:mod:`repro.service.protocol`, and routes:

* ``run`` requests enter the :class:`~repro.service.admission.AdmissionController`
  queue and block the connection thread until their batch resolves —
  clients may pipeline by tagging requests with ``id``;
* ``health`` / ``stats`` / ``graphs`` answer immediately from the
  registry and the deterministic service counters (the live equivalents
  of ``repro doctor`` and ``repro stats``); ``health`` names the engine
  the workers execute on, and ``stats`` adds the queue-wait and
  execute-time quantiles of the requests served so far and a ``jit``
  block of kernel-cache tier hits and compiles.

Failure policy: every protocol error produces a structured
``{"ok": false, "error": {...}}`` response on the same connection —
only an over-long line (unframed garbage) closes it, after a final
``line-too-long`` error.  Client disconnects mid-request are absorbed
and counted, never propagated into the batch (the fused run finishes
for the other clients).
"""

from __future__ import annotations

import select
import socket
import socketserver
import threading

from .. import obs
from .admission import AdmissionController
from .protocol import (
    ALGORITHMS,
    ProtocolError,
    encode_response,
    error_response,
    max_line_bytes,
    ok_response,
    parse_request,
)
from .registry import GraphRegistry

__all__ = ["GraphServer", "read_line"]


def read_line(rfile, limit: int) -> bytes | None:
    """Read one newline-terminated request line of at most *limit*
    bytes.  Returns ``None`` at EOF; raises :class:`ProtocolError`
    (``line-too-long``) when the cap is hit before a newline."""
    line = rfile.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit and not line.endswith(b"\n"):
        raise ProtocolError(
            "line-too-long", f"request line exceeds {limit} bytes"
        )
    return line.rstrip(b"\r\n")


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "GraphServer" = self.server  # type: ignore[assignment]
        limit = max_line_bytes()
        while True:
            try:
                line = read_line(self.rfile, limit)
            except ProtocolError as exc:
                # unframed input: answer once, then drop the connection
                server._note_protocol_error()
                self._reply(error_response(None, exc.code, str(exc)))
                return
            except (ConnectionError, OSError):
                server._note_disconnect()
                return
            if line is None:
                return
            if not line.strip():
                continue
            try:
                response = self._respond(server, line)
            except ProtocolError as exc:
                server._note_protocol_error()
                response = error_response(_peek_id(line), exc.code, str(exc))
            if not self._reply(response):
                server._note_disconnect()
                return

    def _respond(self, server: "GraphServer", line: bytes) -> dict:
        doc = parse_request(line)
        op = doc["op"]
        if op == "health":
            return ok_response(doc["id"], server.health())
        if op == "stats":
            return ok_response(doc["id"], server.stats())
        if op == "graphs":
            return ok_response(doc["id"], {"graphs": server.registry.describe()})
        pending = server.admission.submit(doc["request"])
        return pending.wait()

    def _reply(self, response: dict) -> bool:
        try:
            # a client that closed while its batch ran leaves a readable
            # EOF; a bare write would land in the kernel buffer and
            # "succeed", so peek first to notice the disconnect
            readable, _, _ = select.select([self.connection], [], [], 0)
            if readable and self.connection.recv(1, socket.MSG_PEEK) == b"":
                return False
            self.wfile.write(encode_response(response))
            self.wfile.flush()
            return True
        except (ConnectionError, OSError):
            return False


def _peek_id(line: bytes):
    """Best-effort request-id recovery for error responses on lines that
    parsed as JSON but failed validation."""
    import json

    try:
        doc = json.loads(line)
        req_id = doc.get("id") if isinstance(doc, dict) else None
        return req_id if isinstance(req_id, (str, int, float)) else None
    except ValueError:
        return None


class GraphServer(socketserver.ThreadingTCPServer):
    """The service: bind, ``serve_forever()`` (or ``start()`` for a
    background thread), ``close()``.  Port 0 binds an ephemeral port;
    read it back from :attr:`port`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        registry: GraphRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: AdmissionController | None = None,
    ):
        self.registry = registry
        self.admission = admission if admission is not None else AdmissionController(registry)
        self._serve_thread: threading.Thread | None = None
        super().__init__((host, port), _Handler)
        if obs.ACTIVE:
            obs.record_event(
                "service.start", "service",
                host=host, port=self.port, graphs=len(registry),
            )

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def host(self) -> str:
        return self.server_address[0]

    # ------------------------------------------------------------------
    def start(self) -> "GraphServer":
        """Serve on a background daemon thread (tests, the harness)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="pygb-serve-accept", daemon=True
        )
        self._serve_thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        self.admission.close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def __enter__(self) -> "GraphServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # live endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        from . import stats as service_stats

        counters = service_stats()
        return {
            "status": "ok",
            "engine": self.admission.engine,
            "graphs": self.registry.names(),
            "algorithms": sorted(ALGORITHMS),
            "requests": counters["requests"],
            "errors": counters["errors"] + counters["protocol_errors"],
        }

    def stats(self) -> dict:
        """The deterministic counters plus this server's ``latency``
        block (queue wait and execute time per algorithm) and the
        process's ``jit`` block: kernel-cache hits per tier and compiles
        (nested, so the top level stays the request counters)."""
        from ..jit.cache import default_cache
        from . import stats as service_stats

        snap = default_cache().stats.snapshot()
        jit = {key: snap[key] for key in ("memory_hits", "catalog_hits", "disk_hits", "compiles")}
        return {**service_stats(), "latency": self.admission.latency(), "jit": jit}

    # ------------------------------------------------------------------
    def _note_protocol_error(self) -> None:
        from . import note_protocol_error

        note_protocol_error()

    def _note_disconnect(self) -> None:
        from . import note_disconnect

        note_disconnect()
