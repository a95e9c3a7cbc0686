"""Campaign-service tests: the HTTP surface end-to-end over loopback.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven with
``urllib`` -- submission, resubmission identity (100% hits, identical
bytes), unit-key lookup, metrics exposition validity, and error paths.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache
from repro.obs.prom import parse_metrics, validate_metrics_text
from repro.serve import CampaignService, make_server
from repro.serve.service import MAX_UNITS_PER_SUBMISSION

SWEEP_REQUEST = {
    "specs": [
        {
            "kind": "crash",
            "r": 1,
            "t": 1,
            "trials": 6,
            "protocol": "crash-flood",
        }
    ],
    "root_seed": 4,
    "chunk_size": 2,
}


@pytest.fixture
def server(tmp_path):
    """A live service over a fresh sharded store; yields its base URL."""
    service = CampaignService(cache=ResultCache(tmp_path / "store"))
    httpd = make_server(service)
    host, port = httpd.server_address[:2]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://{host}:{port}"
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def post_json(url, payload):
    """POST a dict as JSON; return (status, raw_bytes)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


def get(url):
    """GET; return (status, raw_bytes)."""
    with urllib.request.urlopen(url) as response:
        return response.status, response.read()


class TestSweepSubmission:
    def test_submit_runs_and_reports(self, server):
        status, body = post_json(f"{server}/sweeps", SWEEP_REQUEST)
        report = json.loads(body)
        assert status == 200
        assert report["id"] == "sweep-1"
        assert report["status"] == "done"
        assert len(report["rows"][0]) == 6
        assert report["stats"]["cache_misses"] == 3
        assert len(report["unit_keys"]) == 3

    def test_resubmission_is_pure_hits_and_identical_bytes(self, server):
        _, first = post_json(f"{server}/sweeps", SWEEP_REQUEST)
        _, second = post_json(f"{server}/sweeps", SWEEP_REQUEST)
        a, b = json.loads(first), json.loads(second)
        assert b["hit_fraction"] == 1.0
        assert b["stats"]["cache_hits"] == b["stats"]["units_total"]
        # rows byte-identical on the wire (canonical JSON both times)
        rows = lambda raw: json.dumps(  # noqa: E731 - tiny local helper
            json.loads(raw)["rows"], sort_keys=True
        ).encode()
        assert rows(first) == rows(second)

    def test_sweep_report_refetch(self, server):
        _, first = post_json(f"{server}/sweeps", SWEEP_REQUEST)
        status, again = get(f"{server}/sweeps/sweep-1")
        assert status == 200
        assert json.loads(again)["rows"] == json.loads(first)["rows"]

    def test_unknown_sweep_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(f"{server}/sweeps/sweep-999")
        assert err.value.code == 404

    def test_unit_key_lookup(self, server):
        _, body = post_json(f"{server}/sweeps", SWEEP_REQUEST)
        key = json.loads(body)["unit_keys"][0]
        status, unit = get(f"{server}/results/{key}")
        assert status == 200
        payload = json.loads(unit)
        assert payload["key"] == key
        assert len(payload["rows"]) == 2  # chunk_size trials

    def test_unknown_unit_key_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(f"{server}/results/{'0' * 64}")
        assert err.value.code == 404


class TestErrorPaths:
    def test_invalid_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server}/sweeps", data=b"not json {{{"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_missing_specs_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server}/sweeps", {"root_seed": 1})
        assert err.value.code == 400
        assert "specs" in json.loads(err.value.read())["error"]

    def test_bad_spec_field_400(self, server):
        bad = {"specs": [{"kind": "gremlin", "r": 1, "t": 1}]}
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server}/sweeps", bad)
        assert err.value.code == 400

    def test_oversized_submission_400_before_planning(
        self, server, monkeypatch
    ):
        """A tiny body asking for a billion trials is refused from the
        trial counts alone -- no unit is planned, no sweep is counted."""

        def no_planning(*args, **kwargs):
            raise AssertionError("plan_units ran for a refused submission")

        monkeypatch.setattr("repro.serve.service.plan_units", no_planning)
        monkeypatch.setattr("repro.exec.campaign.plan_units", no_planning)
        huge = {
            "specs": [
                {
                    "kind": "crash",
                    "r": 1,
                    "t": 1,
                    "trials": 10**9,
                    "protocol": "crash-flood",
                }
            ]
        }
        with pytest.raises(urllib.error.HTTPError) as err:
            post_json(f"{server}/sweeps", huge)
        assert err.value.code == 400
        error = json.loads(err.value.read())
        assert error["type"] == "ConfigurationError"
        assert "MAX_UNITS_PER_SUBMISSION" in error["error"]
        assert str(MAX_UNITS_PER_SUBMISSION) in error["error"]
        _, body = get(f"{server}/metrics")
        fams = parse_metrics(body.decode("utf-8"))
        assert fams["repro_sweeps_total"].samples[0].value == 0

    def test_unit_limit_boundary(self):
        """The limit counts units (ceil of trials / chunk_size), summed
        over every spec."""
        service = CampaignService()

        def request(trials, chunk_size):
            spec = {"kind": "crash", "r": 1, "t": 1, "trials": trials,
                    "protocol": "crash-flood"}
            return {"specs": [spec, spec], "chunk_size": chunk_size}

        half = MAX_UNITS_PER_SUBMISSION // 2
        service._parse_request(request(half * 3, 3))
        service._parse_request(request(half * 3 - 2, 3))
        with pytest.raises(ConfigurationError, match="work units"):
            service._parse_request(request(half * 3 + 1, 3))

    def test_unknown_endpoint_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(f"{server}/teapot")
        assert err.value.code == 404


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, server):
        post_json(f"{server}/sweeps", SWEEP_REQUEST)
        status, body = get(f"{server}/metrics")
        assert status == 200
        nfam, nsamples = validate_metrics_text(body.decode("utf-8"))
        assert nfam >= 8 and nsamples >= nfam

    def test_counters_track_campaigns(self, server):
        post_json(f"{server}/sweeps", SWEEP_REQUEST)
        post_json(f"{server}/sweeps", SWEEP_REQUEST)
        _, body = get(f"{server}/metrics")
        fams = parse_metrics(body.decode("utf-8"))
        assert fams["repro_sweeps_total"].samples[0].value == 2
        by_outcome = {
            s.labels["outcome"]: s.value
            for s in fams["repro_units_total"].samples
        }
        assert by_outcome["computed"] == 3  # first submission
        assert by_outcome["cached"] == 3  # second submission
        assert by_outcome["failed"] == 0
        assert fams["repro_trials_total"].samples[0].value == 12

    def test_backend_workers_reports_configuration(self, server):
        post_json(f"{server}/sweeps", SWEEP_REQUEST)
        _, body = get(f"{server}/metrics")
        fams = parse_metrics(body.decode("utf-8"))
        samples = fams["repro_backend_workers"].samples
        assert [s.labels["state"] for s in samples] == ["configured"]

    def test_healthz(self, server):
        status, body = get(f"{server}/healthz")
        assert status == 200
        assert json.loads(body) == {"ok": True}
