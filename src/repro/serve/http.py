"""The ``repro serve`` HTTP layer: stdlib ``http.server`` over
:class:`~repro.serve.service.CampaignService`.

Endpoints (see ``docs/SERVICE.md`` for request/response shapes):

========  ====================  =========================================
method    path                  action
========  ====================  =========================================
POST      ``/sweeps``           submit a sweep (JSON body); runs it and
                                returns the full report
GET       ``/sweeps/{id}``      re-fetch a finished sweep's report
GET       ``/results/{key}``    rows for one content-addressed unit key
GET       ``/metrics``          Prometheus text exposition (format 0.0.4)
GET       ``/healthz``          liveness probe
========  ====================  =========================================

The server is a ``ThreadingHTTPServer``: a long sweep executing inside
its ``POST /sweeps`` request thread never blocks ``/metrics`` scrapes,
which read the in-flight campaign's queue depth live.  All JSON
responses are canonical (sorted keys), so identical submissions return
byte-identical ``rows`` -- the property CI's ``serve-smoke`` job
asserts over this very interface.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.serve.service import CampaignService, canonical_report

#: Content type for Prometheus text exposition.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Cap on accepted request bodies (a sweep submission is kilobytes).
MAX_BODY_BYTES = 16 * 1024 * 1024


class CampaignRequestHandler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the attached :class:`CampaignService`.

    The service instance is injected as a class attribute by
    :func:`make_server` (the ``http.server`` handler-class contract).
    """

    #: injected by :func:`make_server`
    service: CampaignService = None  # type: ignore[assignment]
    #: silenced access log unless make_server(quiet=False)
    quiet = True

    protocol_version = "HTTP/1.1"

    # pylint-style note: BaseHTTPRequestHandler uses camelCase hooks
    def log_message(self, format: str, *args: Any) -> None:
        """Access log; suppressed by default (tests, CI smoke)."""
        if not self.quiet:  # pragma: no cover - log formatting
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send(
        self, code: int, body: bytes, content_type: str = "application/json"
    ) -> None:
        """Write one complete response."""
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        """Write a canonical-JSON response."""
        self._send(code, canonical_report(payload).encode("utf-8"))

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """Parse the request body as JSON; answers 400 and returns
        ``None`` on any malformation."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "bad Content-Length"})
            return None
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"error": f"invalid JSON body: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(400, {"error": "body must be a JSON object"})
            return None
        return body

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        """``POST /sweeps``: submit and execute one sweep."""
        if self.path.rstrip("/") != "/sweeps":
            self._send_json(404, {"error": f"no such endpoint {self.path}"})
            return
        body = self._read_json_body()
        if body is None:
            return
        try:
            report = self.service.submit(body)
        except ReproError as exc:
            self._send_json(
                400, {"error": str(exc), "type": type(exc).__name__}
            )
            return
        self._send_json(200, report)

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        """Dispatch GET endpoints (sweeps, results, metrics, health)."""
        path = self.path.rstrip("/") or "/"
        if path == "/metrics":
            self._send(
                200,
                self.service.metrics_text().encode("utf-8"),
                content_type=PROM_CONTENT_TYPE,
            )
            return
        if path == "/healthz":
            self._send_json(200, {"ok": True})
            return
        if path.startswith("/sweeps/"):
            report = self.service.get_sweep(path[len("/sweeps/"):])
            if report is None:
                self._send_json(404, {"error": "unknown sweep id"})
            else:
                self._send_json(200, report)
            return
        if path.startswith("/results/"):
            result = self.service.get_result(path[len("/results/"):])
            if result is None:
                self._send_json(
                    404, {"error": "unit key not in the result store"}
                )
            else:
                self._send_json(200, result)
            return
        self._send_json(404, {"error": f"no such endpoint {self.path}"})


def make_server(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Build a ready-to-serve HTTP server bound to ``host:port``.

    Port ``0`` binds an ephemeral port (read it from
    ``server.server_address``).  Call ``serve_forever()`` to block, or
    run it on a thread and ``shutdown()`` to stop -- the pattern the
    tests and the smoke job use.
    """
    handler = type(
        "BoundCampaignRequestHandler",
        (CampaignRequestHandler,),
        {"service": service, "quiet": quiet},
    )
    return ThreadingHTTPServer((host, port), handler)


def serve(
    service: CampaignService,
    host: str = "127.0.0.1",
    port: int = 8321,
    quiet: bool = False,
) -> Tuple[str, int]:
    """Blocking entry point for ``repro serve``; returns the bound
    address once the server is shut down (KeyboardInterrupt-safe)."""
    server = make_server(service, host, port, quiet=quiet)
    address = server.server_address[:2]
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
    return address
