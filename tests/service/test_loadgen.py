"""Load-generator accounting against a service that is not there."""

from __future__ import annotations

import socket

from repro.service.loadgen import LoadReport, run_load


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_refused_connections_back_off_and_stay_accounted():
    report = run_load("127.0.0.1", _closed_port(), duration_s=0.3, timeout_s=1.0)
    assert report.issued > 0
    assert report.connection_errors == report.issued
    assert report.lost == 0
    # Without backoff each worker spins on the refused connect thousands
    # of times in 0.3 s.
    assert report.issued < 50
    assert report.goodput_rps == 0.0
    assert report.latencies_ms == []


def test_goodput_counts_only_fresh_answers():
    report = LoadReport(duration_s=2.0, issued=10, ok=4, stale=3, connection_errors=3)
    assert report.goodput_rps == 2.0
    assert report.to_dict()["goodput_rps"] == 2.0
    assert "qps" not in report.to_dict()
