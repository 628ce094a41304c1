"""REST API over :class:`~repro.svc.service.SweepService` (stdlib only).

Routes (all JSON unless noted)::

    GET    /healthz                liveness + fleet/queue summary
    GET    /metrics                counters, gauges, derived rates
    POST   /sweeps                 submit a SweepSpec; 201 + job record
    GET    /sweeps                 list jobs (?state=, ?limit=)
    GET    /sweeps/{id}            job status + per-cell ledger
    GET    /sweeps/{id}/results    results (?label= repeatable,
                                   ?fields= comma-projected record keys,
                                   ?include=digests omits full records)
    GET    /sweeps/{id}/events     NDJSON progress events; ?follow=1
                                   streams live until the job is
                                   terminal (close-delimited)
    DELETE /sweeps/{id}            cancel (queued or running)

``POST /sweeps`` accepts either a bare spec object or
``{"spec": {...}, "priority": N}``. Responses are compact JSON (no
indentation or spaces; ``repro jobs`` pretty-prints its own output).
Errors are JSON too:
``{"error": "..."}`` with 400 (bad spec), 404 (unknown job), 409
(illegal cancel), 405, or 500.

Built on :class:`http.server.HTTPServer` with a pool of handler
threads: each accepted connection goes to an idle handler thread, and a
new thread starts only when none is idle, so every in-flight connection
(a followed event stream included) has its own thread without paying a
thread start per connection. That is plenty for a control-plane API
whose heavy lifting happens in the worker fleet, and keeps the service
entirely inside the standard library.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, urlparse

from repro.svc.service import ServiceError, SweepService
from repro.svc.spec import SpecError

#: Poll interval while following a job's event stream.
FOLLOW_POLL_SECONDS = 0.1

#: Handler threads kept waiting for a connection; a thread that finishes
#: a connection while this many wait exits instead.
MAX_IDLE_HANDLERS = 8


class SweepServer(HTTPServer):
    """The HTTP server, carrying the service for its handler threads.

    A handler thread serves one connection, then waits on ``_handoff``
    for the next; ``_idle`` counts the waiting threads, so the accepting
    thread hands a connection over only when a thread will take it.
    Handler threads are daemons, as ``ThreadingHTTPServer``'s were with
    ``daemon_threads``: ``server_close`` releases the idle ones and does
    not wait for a connection still being served.
    """

    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: SweepService) -> None:
        super().__init__(address, SweepRequestHandler)
        self.service = service
        self._handoff: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._idle_lock = threading.Lock()
        self._idle = 0
        self._closed = False

    def process_request(self, request: Any,
                        client_address: Tuple[str, int]) -> None:
        with self._idle_lock:
            if self._idle:
                self._idle -= 1
                self._handoff.put((request, client_address))
                return
        threading.Thread(target=self._handle_connections,
                         args=(request, client_address),
                         name="svc-http", daemon=True).start()

    def _handle_connections(self, request: Any,
                            client_address: Tuple[str, int]) -> None:
        while True:
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)
            with self._idle_lock:
                if self._closed or self._idle >= MAX_IDLE_HANDLERS:
                    return
                self._idle += 1
            handed = self._handoff.get()
            if handed is None:
                return
            request, client_address = handed

    def server_close(self) -> None:
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, 0
        for _ in range(idle):
            self._handoff.put(None)


class SweepRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the service; see the module docstring."""

    server: SweepServer
    protocol_version = "HTTP/1.1"
    #: A buffered writer: a response's headers and body collect in it and
    #: leave in one send when the request ends (``handle_one_request``
    #: flushes), for any response up to this size. The ``/events`` stream
    #: flushes explicitly.
    wbufsize = 1 << 16
    #: ``TCP_NODELAY``: on a kept-alive connection Nagle's algorithm would
    #: hold a send until the client's delayed ACK of the previous one,
    #: about 40 ms per response.
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> SweepService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        pass  # request logging rides the svc.* event stream instead

    def _send_json(self, payload: Any, status: int = 200) -> None:
        # Compact, so the C encoder writes it: clients only parse it.
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"request body is not JSON: {exc}")

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

    # -- methods -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, query = self._route()
        try:
            if path == "/healthz":
                self._send_json(self.service.health())
            elif path == "/metrics":
                self._send_json(self.service.metrics_snapshot())
            elif path == "/sweeps":
                state = query.get("state", [None])[0]
                limit = int(query.get("limit", ["50"])[0])
                self._send_json(
                    {"jobs": self.service.jobs(state=state, limit=limit)})
            elif path.startswith("/sweeps/"):
                self._get_sweep(path, query)
            else:
                self._send_error_json(404, f"no such route: {path}")
        except ServiceError as exc:
            self._send_error_json(404, str(exc))
        except (ValueError, SpecError) as exc:
            self._send_error_json(400, str(exc))

    def _get_sweep(self, path: str, query: Dict[str, Any]) -> None:
        parts = path.split("/")  # ['', 'sweeps', id, (sub)]
        job_id = parts[2]
        sub = parts[3] if len(parts) > 3 else None
        if sub is None:
            self._send_json(self.service.job(job_id))
        elif sub == "results":
            labels = query.get("label") or None
            results = self.service.results(job_id, labels=labels)
            fields = query.get("fields", [None])[0]
            if query.get("include", [None])[0] == "digests":
                for entry in results.values():
                    entry["result"] = None
            elif fields:
                wanted = [f.strip() for f in fields.split(",") if f.strip()]
                for entry in results.values():
                    if entry["result"] is not None:
                        entry["result"] = {key: entry["result"].get(key)
                                           for key in wanted}
            self._send_json({"job": job_id, "results": results})
        elif sub == "events":
            follow = query.get("follow", ["0"])[0] in ("1", "true")
            self._stream_events(job_id, follow)
        else:
            self._send_error_json(404, f"no such route: {path}")

    def _stream_events(self, job_id: str, follow: bool) -> None:
        job = self.service.job(job_id)  # 404s before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        # Close-delimited stream: no Content-Length, explicit close.
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        index = 0
        while True:
            for event in self.service.job_events(job_id, since=index):
                line = json.dumps(event.to_dict()) + "\n"
                self.wfile.write(line.encode("utf-8"))
                index += 1
            self.wfile.flush()
            if not follow:
                return
            job = self.service.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                # Flush anything emitted between the last drain and the
                # terminal-state read, then finish the stream.
                for event in self.service.job_events(job_id, since=index):
                    line = json.dumps(event.to_dict()) + "\n"
                    self.wfile.write(line.encode("utf-8"))
                    index += 1
                self.wfile.flush()
                return
            time.sleep(FOLLOW_POLL_SECONDS)

    def do_POST(self) -> None:  # noqa: N802
        path, _query = self._route()
        if path != "/sweeps":
            self._send_error_json(404 if path.startswith("/sweeps")
                                  else 405, f"cannot POST {path}")
            return
        try:
            body = self._read_body()
            priority = 0
            spec_data = body
            if isinstance(body, dict) and "spec" in body:
                spec_data = body["spec"]
                priority = int(body.get("priority", 0))
            job = self.service.submit(spec_data, priority=priority)
        except SpecError as exc:
            self._send_error_json(400, str(exc))
        except (TypeError, ValueError) as exc:
            self._send_error_json(400, f"malformed submission: {exc}")
        else:
            self._send_json(job, status=201)

    def do_DELETE(self) -> None:  # noqa: N802
        path, _query = self._route()
        parts = path.split("/")
        if len(parts) != 3 or parts[1] != "sweeps":
            self._send_error_json(405, f"cannot DELETE {path}")
            return
        try:
            job = self.service.cancel(parts[2])
        except ServiceError as exc:
            status = 409 if "already" in str(exc) else 404
            self._send_error_json(status, str(exc))
        else:
            self._send_json(job)


def serve(service: SweepService, host: str = "127.0.0.1",
          port: int = 8642) -> SweepServer:
    """Bind a :class:`SweepServer`; the caller drives ``serve_forever``.

    ``port=0`` picks a free port (tests); the bound address is on
    ``server.server_address``.
    """
    return SweepServer((host, port), service)
