"""The per-host HTTP information API.

Celestial hosts run an HTTP server that provides information on satellite
positions, network paths between satellites, constellation information and
more to the emulated satellite servers (§3.2).  Application developers can
use it instead of implementing their own model of satellite movement.

``InfoAPI`` implements the routing and JSON responses; ``HTTPInfoServer``
exposes the same API over a real local HTTP socket (standard library only)
for applications that expect to speak HTTP.  Every route answers from the
current epoch; a machine that wants the change stream subscribes to the
streaming gateway (:mod:`repro.serve`).
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.core.constellation import ConstellationCalculation, MachineId
from repro.core.database import ConstellationDatabase
from repro.core.dns import CelestialDNS, DNSError


class InfoAPIError(KeyError):
    """Raised when an info API path does not resolve to a resource."""

    status = 404  # what the HTTP server answers


class InfoAPINotReady(InfoAPIError):
    """Raised for any path until the first epoch has been published."""

    status = 503


class InfoAPI:
    """Routes REST-style paths to constellation database queries."""

    def __init__(
        self,
        database: ConstellationDatabase,
        calculation: ConstellationCalculation,
        dns: Optional[CelestialDNS] = None,
    ):
        self.database = database
        self.calculation = calculation
        self.dns = dns

    def _machine_from_name(self, name: str) -> MachineId:
        if name.endswith(".celestial"):
            name = name[: -len(".celestial")]
        parts = name.split(".")
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            return self.calculation.satellite(int(parts[1]), int(parts[0]))
        candidate = parts[0] if parts[-1] == "gst" else parts[-1]
        for gst_name in self.calculation.config.ground_station_names:
            slug = gst_name.lower().replace(" ", "-").replace(",", "")
            if candidate in (gst_name, slug):
                return self.calculation.ground_station(gst_name)
        raise InfoAPIError(f"unknown machine name: {name!r}")

    def get(self, path: str) -> dict:
        """Resolve a GET request path to its JSON-serialisable response."""
        parts = [part for part in path.strip("/").split("/") if part]
        if not self.database.has_state:
            raise InfoAPINotReady("no constellation state has been published yet")
        try:
            if parts == ["info"] or not parts:
                return self.database.constellation_info()
            if parts[0] == "shell" and len(parts) == 2:
                return self.database.shell_info(int(parts[1]))
            if parts[0] == "sat" and len(parts) == 3:
                return self.database.satellite_info(int(parts[1]), int(parts[2]))
            if parts[0] == "gst" and len(parts) >= 2:
                return self.database.ground_station_info("/".join(parts[1:]))
            if parts[0] == "self" and len(parts) >= 2:
                machine = self._machine_from_name("/".join(parts[1:]))
                if machine.is_ground_station:
                    return self.database.ground_station_info(machine.name)
                return self.database.satellite_info(machine.shell, machine.identifier)
            if parts[0] == "path" and len(parts) == 3:
                source = self._machine_from_name(parts[1])
                destination = self._machine_from_name(parts[2])
                return self.database.path_info(source, destination)
            if parts[0] == "dns" and len(parts) >= 2 and self.dns is not None:
                return self.dns.a_record("/".join(parts[1:]))
        except (KeyError, ValueError, IndexError, DNSError) as error:
            raise InfoAPIError(str(error)) from error
        raise InfoAPIError(f"unknown path: {path!r}")


class HTTPInfoServer:
    """Serves an :class:`InfoAPI` over HTTP on localhost (for real clients)."""

    def __init__(self, api: InfoAPI, host: str = "127.0.0.1", port: int = 0):
        self.api = api
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib naming)
                try:
                    payload = outer.api.get(self.path)
                    body = json.dumps(payload).encode()
                    self.send_response(200)
                except InfoAPIError as error:
                    body = json.dumps({"error": str(error)}).encode()
                    self.send_response(error.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_args):
                pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) of the server."""
        return self._server.server_address[:2]

    def start(self) -> None:
        """Start serving in a background thread."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the server and join its thread."""
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "HTTPInfoServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
