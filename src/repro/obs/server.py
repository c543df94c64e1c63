"""The run observatory: a stdlib HTTP read side over one run directory.

``repro serve DIR`` turns the artifacts a run directory accumulates —
save_run files, campaign journals, telemetry channels, the bench
ledger — into one always-on endpoint surface:

=====================  ==============================================
Endpoint               Body
=====================  ==============================================
``/healthz``           ``ok`` (liveness probe)
``/metrics``           Prometheus exposition: every indexed run's
                       series (``run``/``scheme``/``benchmark``
                       labels) plus time-stable fleet aggregates
``/api/status``        live :func:`~repro.obs.fleet.load_fleet`
                       state — byte-for-byte the ``status.json``
                       schema
``/api/runs``          the index's runs table, sorted JSON
``/api/runs/<hash>``   one run row (unique hash prefixes resolve)
``/api/campaigns``     the index's campaigns table
``/api/regressions``   :func:`~repro.obs.benchhistory.history_document`
                       over the indexed bench samples
``/``                  HTML front page (index stats + run links)
``/runs/<hash>``       the same byte-stable HTML page
                       ``repro report --out`` writes, rendered
                       from the saved artifact
``/fleet``             auto-refreshing fleet page driven by
                       ``/api/status``
=====================  ==============================================

Determinism contract
--------------------
For a *static* run directory every body above except ``/api/status``
and ``/fleet``'s live table is byte-identical across requests: JSON is
``sort_keys`` + two-space indent + trailing newline, ``/metrics``
renders runs in index order with sorted labels, and the HTML pages
come from the same pure renderers the CLI uses.  CI pins this with a
double-GET comparison.

Everything here is stdlib only (``http.server`` +
``ThreadingHTTPServer``); the shared :class:`~repro.obs.index
.ArtifactIndex` connection is lock-guarded, so concurrent requests are
safe.  Untrusted strings (scheme names, benchmark names, file paths)
are HTML-escaped at every interpolation point.
"""

from __future__ import annotations

import html
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional, Tuple, Union
from urllib.parse import unquote, urlsplit

from repro.obs.benchhistory import history_document
from repro.obs.fleet import (
    DEFAULT_STALL_AFTER, FleetStatus, load_fleet, status_json,
)
from repro.obs.htmlreport import _STYLE, render_run_html
from repro.obs.index import ArtifactIndex


def _json_body(document: Any) -> bytes:
    """The repo's canonical JSON bytes: sorted, indented, newline."""
    return (
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


class ObservatoryServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one run dir + index."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        run_dir: Path,
        index: ArtifactIndex,
        stall_after: float = DEFAULT_STALL_AFTER,
    ) -> None:
        super().__init__(address, ObservatoryHandler)
        self.run_dir = run_dir
        self.index = index
        self.stall_after = stall_after

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` ephemeral binds)."""
        return int(self.server_address[1])


def create_server(
    run_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    index: Optional[ArtifactIndex] = None,
    stall_after: float = DEFAULT_STALL_AFTER,
) -> ObservatoryServer:
    """Bind an observatory over ``run_dir``.

    Without an explicit ``index`` an ephemeral in-memory one is built
    by ingesting ``run_dir`` — the zero-setup ``repro serve DIR`` path.
    ``port=0`` asks the OS for an ephemeral port; read it back from
    :attr:`ObservatoryServer.port`.
    """
    run_dir = Path(run_dir)
    if index is None:
        index = ArtifactIndex(":memory:")
        index.ingest(run_dir)
    return ObservatoryServer(
        (host, port), run_dir=run_dir, index=index, stall_after=stall_after
    )


class ObservatoryHandler(BaseHTTPRequestHandler):
    """Routes one request against the server's run dir and index."""

    server: ObservatoryServer  # narrowed for the route helpers
    protocol_version = "HTTP/1.1"

    # Silence the default stderr access log; the CLI announces the
    # address once and the server is otherwise quiet.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = unquote(urlsplit(self.path).path)
        try:
            if path == "/healthz":
                self._send(200, "text/plain; charset=utf-8", b"ok\n")
            elif path == "/metrics":
                self._send(
                    200,
                    "text/plain; version=0.0.4; charset=utf-8",
                    self._metrics_body(),
                )
            elif path == "/api/status":
                body = status_json(self._fleet_status()).encode("utf-8")
                self._send(200, "application/json; charset=utf-8", body)
            elif path == "/api/runs":
                self._send_json(200, self.server.index.runs())
            elif path.startswith("/api/runs/"):
                record = self.server.index.run(path[len("/api/runs/"):])
                if record is None:
                    self._send_json(404, {"error": "unknown run hash"})
                else:
                    self._send_json(200, record)
            elif path == "/api/campaigns":
                self._send_json(200, self.server.index.campaigns())
            elif path == "/api/regressions":
                self._send_json(
                    200,
                    history_document(self.server.index.bench_history()),
                )
            elif path == "/":
                self._send_html(200, self._front_page())
            elif path.startswith("/runs/"):
                self._run_page(path[len("/runs/"):])
            elif path == "/fleet":
                self._send_html(200, _FLEET_PAGE)
            else:
                self._send(
                    404, "text/plain; charset=utf-8", b"not found\n"
                )
        except Exception as exc:  # pragma: no cover - defensive
            self._send(
                500,
                "text/plain; charset=utf-8",
                f"internal error: {type(exc).__name__}\n".encode("utf-8"),
            )

    # ------------------------------------------------------------------
    # Response plumbing
    # ------------------------------------------------------------------

    def _send(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, document: Any) -> None:
        self._send(
            code, "application/json; charset=utf-8", _json_body(document)
        )

    def _send_html(self, code: int, page: str) -> None:
        self._send(
            code, "text/html; charset=utf-8", page.encode("utf-8")
        )

    # ------------------------------------------------------------------
    # Bodies
    # ------------------------------------------------------------------

    def _fleet_status(self) -> FleetStatus:
        return load_fleet(
            self.server.run_dir, stall_after=self.server.stall_after
        )

    def _metrics_body(self) -> bytes:
        """Every indexed run's exposition plus fleet aggregates.

        Runs render in the index's sorted order, each labelled with its
        content-hash prefix; runs whose source artifact lost its series
        (or vanished) are skipped.  The fleet block reports only
        time-stable aggregates — per-state cell counts and remaining
        accesses — so a finished directory's body never changes between
        scrapes.
        """
        from repro.common.errors import ReproError
        from repro.sim.cache import load_run

        chunks = []
        for record in self.server.index.runs():
            try:
                result = load_run(record["source"])
            except (ReproError, OSError):
                continue
            if result.series is None:
                continue
            chunks.append(result.series.to_prometheus(
                extra_labels={"run": record["hash"][:12]}
            ))
        status = self._fleet_status()
        if status.cells:
            counts = status.counts()
            lines = [
                "# HELP repro_fleet_cells Cells per fleet state in the "
                "served run directory.",
                "# TYPE repro_fleet_cells gauge",
            ]
            for state in sorted(counts):
                lines.append(
                    f'repro_fleet_cells{{state="{state}"}} '
                    f"{counts[state]}"
                )
            lines.extend([
                "# HELP repro_fleet_remaining_accesses Accesses not yet "
                "simulated across unfinished cells.",
                "# TYPE repro_fleet_remaining_accesses gauge",
                f"repro_fleet_remaining_accesses "
                f"{status.remaining_accesses()}",
            ])
            chunks.append("\n".join(lines) + "\n")
        return "".join(chunks).encode("utf-8")

    def _front_page(self) -> str:
        stats = self.server.index.stats()
        rows = []
        for record in self.server.index.runs():
            digest = record["hash"]
            rows.append(
                "<tr>"
                f'<td class="name"><a href="/runs/{html.escape(digest)}">'
                f"{html.escape(digest[:12])}</a></td>"
                f'<td class="name">{html.escape(record["scheme"])}</td>'
                f'<td class="name">{html.escape(record["benchmark"])}'
                "</td>"
                f'<td>{record["mpki"]:.4f}</td>'
                f'<td>{record["amat"]:.4f}</td>'
                f'<td>{record["miss_rate"]:.4f}</td>'
                "</tr>"
            )
        run_table = (
            "<table><tr><th>run</th><th>scheme</th><th>benchmark</th>"
            "<th>MPKI</th><th>AMAT</th><th>miss rate</th></tr>"
            + "".join(rows) + "</table>"
            if rows else "<p>No runs indexed yet.</p>"
        )
        return (
            "<!DOCTYPE html>\n<html><head>"
            '<meta charset="utf-8"><title>repro observatory</title>'
            f"<style>{_STYLE}</style></head><body>"
            "<h1>repro observatory</h1>"
            f"<p>serving <code>"
            f"{html.escape(str(self.server.run_dir))}</code> — "
            f"{stats['runs']} run(s), {stats['campaigns']} campaign(s), "
            f"{stats['bench_samples']} bench sample(s) indexed</p>"
            '<p><a href="/fleet">fleet</a> · '
            '<a href="/metrics">metrics</a> · '
            '<a href="/api/runs">api/runs</a> · '
            '<a href="/api/regressions">api/regressions</a></p>'
            "<h2>Runs</h2>" + run_table + "</body></html>\n"
        )

    def _run_page(self, digest: str) -> None:
        from repro.common.errors import ReproError
        from repro.sim.cache import load_run

        record = self.server.index.run(digest)
        if record is None:
            self._send_html(
                404,
                "<!DOCTYPE html>\n<html><body><h1>unknown run"
                "</h1></body></html>\n",
            )
            return
        try:
            result = load_run(record["source"])
        except (ReproError, OSError):
            self._send_html(
                404,
                "<!DOCTYPE html>\n<html><body><h1>run artifact "
                "missing</h1><p>"
                + html.escape(str(record["source"]))
                + "</p></body></html>\n",
            )
            return
        self._send_html(200, render_run_html(result))


#: The auto-refreshing fleet page: a static shell whose table is
#: filled client-side from ``/api/status`` — the page bytes themselves
#: never change, keeping the static-body determinism contract intact.
_FLEET_PAGE = (
    "<!DOCTYPE html>\n<html><head>"
    '<meta charset="utf-8"><title>repro fleet</title>'
    f"<style>{_STYLE}</style></head><body>"
    "<h1>Fleet</h1>"
    '<p id="summary">loading…</p>'
    '<table id="cells"><tr><th>cell</th><th>label</th>'
    "<th>workload</th><th>state</th><th>progress</th>"
    "<th>acc/s</th></tr></table>"
    "<script>\n"
    "function esc(s) { const d = document.createElement('div');"
    " d.textContent = String(s); return d.innerHTML; }\n"
    "async function tick() {\n"
    "  let status;\n"
    "  try { status = await (await fetch('/api/status')).json(); }\n"
    "  catch (err) {\n"
    "    document.getElementById('summary').textContent ="
    " 'observatory unreachable';\n"
    "    return;\n"
    "  }\n"
    "  const c = status.counts;\n"
    "  document.getElementById('summary').textContent =\n"
    "    status.total_cells + ' cells — ' + c.done + ' done, '"
    " + c.cached + ' cached, ' + c.running + ' running, '"
    " + c.stalled + ' stalled, ' + c.failed + ' failed, '"
    " + c.pending + ' pending — ' + status.aggregate_rate"
    " + ' acc/s';\n"
    "  const table = document.getElementById('cells');\n"
    "  while (table.rows.length > 1) table.deleteRow(1);\n"
    "  for (const cell of status.cells) {\n"
    "    const done = cell.total_accesses\n"
    "      ? Math.round(100 * cell.accesses_done / cell.total_accesses)"
    " : 0;\n"
    "    const row = table.insertRow();\n"
    "    row.innerHTML = '<td>' + esc(cell.index) + '</td>'"
    " + '<td class=\"name\">' + esc(cell.label) + '</td>'"
    " + '<td class=\"name\">' + esc(cell.workload) + '</td>'"
    " + '<td>' + esc(cell.state) + '</td>'"
    " + '<td>' + done + '%</td>'"
    " + '<td>' + esc(Math.round(cell.rate)) + '</td>';\n"
    "  }\n"
    "}\n"
    "tick();\n"
    "setInterval(tick, 2000);\n"
    "</script></body></html>\n"
)
