"""Stdlib-only HTTP client for the selector service.

:class:`ServiceClient` wraps the service's JSON routes in plain method
calls — submit, status, result, wait, cancel, jobs, metrics — opening
one :class:`http.client.HTTPConnection` per request, which keeps the
client free of state.  Reuse is slower here, not free: a prototype with
one HTTP/1.1 keep-alive connection per client thread raised the
``svc-closed-loop`` bench workload's ``warm_s`` from 0.0052 s to
0.086–0.090 s and its ``drive_s`` ×2.1–2.4 over two runs (2-CPU
Linux box).  The likely cause, unverified, is Nagle's algorithm on the
small request writes against delayed ACKs.

Errors mirror HTTP: every non-2xx response raises :class:`ServiceError`
carrying the status code and the server's message;
:class:`AdmissionError` (a subclass) marks 429-style admission
rejections, so callers can distinguish "retry later" from "your request
is wrong".  Both classes are also what the *server* raises internally —
the HTTP layer is a serialization of these exceptions, and in-process
callers (tests) see the identical error surface.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, List, Optional

__all__ = ["AdmissionError", "ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A service-level failure with its HTTP status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)


class AdmissionError(ServiceError):
    """The service refused to admit a job (queue full, over caps)."""


class ServiceClient:
    """Thin JSON-over-HTTP client for one service endpoint."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7171, timeout: float = 30.0
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode()
                headers = {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read().decode() or "{}")
            if response.status >= 400:
                message = data.get("error", f"HTTP {response.status}")
                if response.status == 429:
                    raise AdmissionError(response.status, message)
                raise ServiceError(response.status, message)
            return data
        finally:
            conn.close()

    # -- the service API ---------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a job spec (a :class:`~repro.service.jobs.JobSpec`
        dict); returns the created job record."""
        return self._request("POST", "/v1/jobs", body=spec)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def gc_results(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> int:
        """Evict stored results by age/size; returns the eviction count.

        Omitted bounds fall back to the service's configured defaults.
        """
        body: Dict[str, Any] = {}
        if max_age_s is not None:
            body["max_age_s"] = max_age_s
        if max_bytes is not None:
            body["max_bytes"] = max_bytes
        return int(
            self._request("POST", "/v1/results/gc", body=body)["removed"]
        )

    def healthz(self) -> bool:
        return bool(self._request("GET", "/v1/healthz").get("ok"))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        poll_interval: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll until the job leaves the queue/running states.

        Returns the final job record (any terminal state — the caller
        checks ``state``); raises :class:`ServiceError` on poll timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.status(job_id)
            if record["state"] not in ("queued", "running"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    504,
                    f"job {job_id} still {record['state']!r} after "
                    f"{timeout:g}s",
                )
            time.sleep(poll_interval)
