"""Thin stdlib HTTP client for the sweep service.

:class:`ServiceClient` wraps :mod:`urllib.request` so the CLI (``repro
submit`` / ``repro jobs``) and tests talk to a running ``repro serve``
without any third-party dependency. Every method mirrors one route in
:mod:`repro.svc.api`; payloads are returned as parsed JSON.

Server-side errors surface as :class:`ClientError` carrying the HTTP
status and the server's ``{"error": ...}`` message, so callers can
distinguish "bad spec" (400) from "no such job" (404) without parsing
exception strings.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Iterator, List, Optional

from repro.common.errors import ReproError

#: :meth:`ServiceClient.wait`'s first pause between polls; it doubles
#: after each poll up to :data:`MAX_POLL_SECONDS`.
FIRST_POLL_SECONDS = 0.005
MAX_POLL_SECONDS = 0.25


class ClientError(ReproError):
    """An HTTP request to the sweep service failed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Client for one sweep-service endpoint (``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None,
                 query: Optional[Dict[str, Any]] = None) -> Any:
        url = self.base_url + path
        if query:
            url += "?" + urllib.parse.urlencode(query, doseq=True)
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except json.JSONDecodeError:
                message = raw or exc.reason
            raise ClientError(exc.code, message)
        except urllib.error.URLError as exc:
            raise ClientError(0, f"cannot reach {self.base_url}: "
                                 f"{exc.reason}")

    # -- routes ------------------------------------------------------------

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def submit(self, spec: dict, priority: int = 0) -> dict:
        """POST a sweep spec; returns the created job record."""
        return self._request("POST", "/sweeps",
                             body={"spec": spec, "priority": priority})

    def jobs(self, state: Optional[str] = None, limit: int = 50) -> List[dict]:
        query: Dict[str, Any] = {"limit": limit}
        if state:
            query["state"] = state
        return self._request("GET", "/sweeps", query=query)["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/sweeps/{job_id}")

    def results(self, job_id: str, labels: Optional[List[str]] = None,
                fields: Optional[str] = None,
                digests_only: bool = False) -> Dict[str, dict]:
        query: Dict[str, Any] = {}
        if labels:
            query["label"] = labels
        if fields:
            query["fields"] = fields
        if digests_only:
            query["include"] = "digests"
        return self._request("GET", f"/sweeps/{job_id}/results",
                             query=query or None)["results"]

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/sweeps/{job_id}")

    def events(self, job_id: str, follow: bool = False) -> Iterator[dict]:
        """Yield the job's progress events as dicts (NDJSON stream).

        With ``follow=True`` the generator blocks on the live stream
        until the job reaches a terminal state.
        """
        url = (f"{self.base_url}/sweeps/{job_id}/events"
               + ("?follow=1" if follow else ""))
        request = urllib.request.Request(url)
        timeout = None if follow else self.timeout
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as response:
                for line in response:
                    line = line.strip()
                    if line:
                        yield json.loads(line.decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", raw)
            except json.JSONDecodeError:
                message = raw or exc.reason
            raise ClientError(exc.code, message)

    # -- conveniences ------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 600.0) -> dict:
        """Poll until the job is terminal; returns the final record.

        The pause between polls starts at 5 ms and doubles up to 250 ms,
        so a job that finishes in milliseconds is seen in milliseconds
        and a long one costs the server four polls a second.
        """
        deadline = time.monotonic() + timeout
        pause = FIRST_POLL_SECONDS
        while True:
            job = self.job(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise ClientError(
                    0, f"job {job_id} still {job['state']!r} after "
                       f"{timeout:g}s")
            time.sleep(pause)
            pause = min(pause * 2, MAX_POLL_SECONDS)
