"""End-to-end tests of the ``repro serve`` daemon and its thin client.

The acceptance property throughout: a verdict obtained over HTTP from a warm
server session is **bit-identical** (via the wall-clock-free result
signatures) to the one an in-process cold run produces — the service changes
where verification runs, never what it computes.  On top of that, the
tenancy mechanics: warm second pushes re-verify only dirty PECs, concurrent
pushes to one namespace serialise in push order, admission control bounds
the queue, and every HTTP error path answers with a meaningful status.
"""

import http.client
import json
import re
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.client import ServiceClient, ServiceError
from repro.config.parser import parse_config
from repro.core.verifier import Plankton
from repro.incremental import IncrementalVerifier, result_signature_digest
from repro.serve import ReproServer
from repro.serve.specs import (
    network_from_payload,
    options_from_spec,
    policy_from_spec,
    scenarios_from_specs,
    transient_options_from_spec,
    transient_property_from_spec,
)
from repro.topology.io import parse_topology

TOPOLOGY_TEXT = """
topology square
node o role edge
node m role core
node a role core
node b role core
link o m weight 10
link m a weight 10
link m b weight 10
link a b weight 10
"""

#: Two BGP PECs (10.8/24, 10.9/24) and a route-map on m matching only the
#: 10.9/24 prefix — so a local-preference edit dirties exactly one PEC.
#: The unattached LP_CEILING map pins m's device-wide maximum local-pref
#: (a §4.1.2 bound folded into *every* PEC's fingerprint) so the clause-10
#: edit below stays invisible to the 10.8/24 PEC.
CONFIG_TEXT = """
device o
  bgp 65000
    network 10.9.0.0/24
    network 10.8.0.0/24
    neighbor m remote-as 65001
device m
  bgp 65001
    neighbor o remote-as 65000 import-map FROM_O
    neighbor a remote-as 65002
    neighbor b remote-as 65003
  route-map FROM_O permit 10
    match prefix 10.9.0.0/24
    set local-preference 120
  route-map FROM_O permit 20
  route-map LP_CEILING permit 10
    set local-preference 200
device a
  bgp 65002
    neighbor m remote-as 65001
    neighbor b remote-as 65003
device b
  bgp 65003
    neighbor m remote-as 65001
    neighbor a remote-as 65002
"""

#: Overlay for device m bumping the 10.9/24 local-preference (120 -> 150).
EDIT_M_OVERLAY = """
  bgp 65001
    neighbor o remote-as 65000 import-map FROM_O
    neighbor a remote-as 65002
    neighbor b remote-as 65003
  route-map FROM_O permit 10
    match prefix 10.9.0.0/24
    set local-preference 150
  route-map FROM_O permit 20
  route-map LP_CEILING permit 10
    set local-preference 200
"""

#: Overlay for device a lowering the local-preference of what b sends it (a
#: different single-device edit, used by the concurrent-push test).
EDIT_A_OVERLAY = """
  bgp 65002
    neighbor m remote-as 65001
    neighbor b remote-as 65003 import-map FROM_B
  route-map FROM_B permit 10
    set local-preference 90
"""

POLICY_SPEC = {"policy": "loop"}
OPTIONS_SPEC = {"max_failures": 1}

VERIFY_PAYLOAD = {
    "kind": "verify",
    "topology": TOPOLOGY_TEXT,
    "config": CONFIG_TEXT,
    "policies": [POLICY_SPEC],
    "options": OPTIONS_SPEC,
}


def base_network():
    return parse_config(parse_topology(TOPOLOGY_TEXT), CONFIG_TEXT)


def cold_signature(network, policy_spec=POLICY_SPEC, options_spec=OPTIONS_SPEC):
    """The in-process oracle: a cold verify of ``network`` through the same
    spec-constructed policy/options the server uses."""
    options = options_from_spec(options_spec)
    policy = policy_from_spec(policy_spec, network)
    return result_signature_digest(Plankton(network, options).verify(policy))


@pytest.fixture(scope="module")
def server():
    instance = ReproServer(port=0, workers=2).start()
    yield instance
    instance.stop()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def get(client, path):
    """``GET path`` through the client's transport (its error handling included)."""
    return client._request("GET", path)


class TestEndToEnd:
    def test_push_poll_verdict_bit_identical_to_in_process(self, client):
        document = client.run("e2e", VERIFY_PAYLOAD, timeout=120)
        assert document["state"] == "done"
        result = document["result"]
        assert result["verdict"] == "holds"
        # The acceptance oracle: signature parity with an in-process cold run.
        assert result["signature"] == cold_signature(base_network())
        # The --json document matches the in-process document field-for-field
        # (elapsed and the incremental section are runtime-dependent).
        verify_doc = result["document"]
        assert verify_doc["holds"] is True
        assert verify_doc["policy"] == "loop-freedom"
        assert verify_doc["pecs_analyzed"] == 2
        assert verify_doc["violations"] == []
        assert verify_doc["incremental"]["pecs_recomputed"] == 2

    def test_warm_second_push_reverifies_only_dirty_pecs(self, client):
        first = client.run("warm", VERIFY_PAYLOAD, timeout=120)
        assert first["result"]["verdict"] == "holds"

        second = client.run(
            "warm",
            {
                "kind": "verify",
                "devices": {"m": EDIT_M_OVERLAY},
                "policies": [POLICY_SPEC],
                "options": OPTIONS_SPEC,
            },
            timeout=120,
        )
        assert second["state"] == "done"
        incremental = second["result"]["document"]["incremental"]
        # The route-map edit covers only 10.9/24: one PEC dirty, one warm.
        assert incremental["pecs_from_cache"] == 1
        assert incremental["pecs_recomputed"] == 1
        assert len(incremental["dirty_pecs"]) == 1
        assert "filter change" in incremental["delta_summary"]

        # Bit-identical to a cold run of the edited configuration.
        edited = network_from_payload({"devices": {"m": EDIT_M_OVERLAY}}, base_network())
        assert second["result"]["signature"] == cold_signature(edited)

        info = client.namespace("warm")
        assert info["pushes"] == 2
        assert info["warm"] is True
        assert info["pecs"] == 2
        assert [entry["push"] for entry in info["delta_history"]] == [1, 2]
        assert info["delta_history"][1]["devices"] == ["m"]

    def test_transient_job_bit_identical_to_in_process(self, client):
        payload = {
            "kind": "transient",
            "topology": TOPOLOGY_TEXT,
            "config": CONFIG_TEXT,
            "options": OPTIONS_SPEC,
            "transient": {"max_states": 2000},
            "scenarios": ["flap:o,m"],
        }
        document = client.run("transient-e2e", payload, timeout=240)
        assert document["state"] == "done"
        result = document["result"]
        assert result["verdict"] == "violated"

        network = base_network()
        service = IncrementalVerifier(network, options_from_spec(OPTIONS_SPEC))
        campaign = service.verify_transients(
            [transient_property_from_spec(None, network)],
            transient=transient_options_from_spec({"max_states": 2000}),
            scenarios=scenarios_from_specs(["flap:o,m"], network),
            pecs=[pec for pec in service.plankton.pecs if pec.has_bgp()],
        )
        assert result["signature"] == result_signature_digest(campaign)
        assert result["document"]["holds"] is False

    def test_run_only_push_reuses_current_config(self, client):
        client.run("rerun", VERIFY_PAYLOAD, timeout=120)
        document = client.run(
            "rerun",
            {"kind": "verify", "policies": [POLICY_SPEC], "options": OPTIONS_SPEC},
            timeout=120,
        )
        incremental = document["result"]["document"]["incremental"]
        assert incremental["pecs_from_cache"] == 2
        assert incremental["pecs_recomputed"] == 0


class TestResultForms:
    """A job renders and keeps only the forms its push names."""

    BASE_FIELDS = {"kind", "verdict", "signature"}

    def test_default_forms_are_document_and_text(self, client):
        result = client.run("forms-default", VERIFY_PAYLOAD, timeout=120)["result"]
        assert set(result) == self.BASE_FIELDS | {"document", "text"}
        assert result["text"].startswith("policies loop-freedom: HOLDS")

    def test_named_forms_replace_the_default(self, client):
        payload = dict(VERIFY_PAYLOAD, forms=["report"])
        result = client.run("forms-report", payload, timeout=120)["result"]
        assert set(result) == self.BASE_FIELDS | {"report"}
        assert result["report"]["policies"] == ["loop-freedom"]
        assert len(result["report"]["pec_runs"]) > 0

    def test_markdown_form_is_titled_and_a_later_push_carries_its_delta(self, client):
        client.run("forms-md", dict(VERIFY_PAYLOAD, forms=[]), timeout=120)
        rerun = {"kind": "verify", "policies": [POLICY_SPEC], "options": OPTIONS_SPEC,
                 "devices": {"m": EDIT_M_OVERLAY}, "forms": ["markdown"]}
        result = client.run("forms-md", rerun, timeout=120)["result"]
        assert set(result) == self.BASE_FIELDS | {"delta", "markdown"}
        assert result["markdown"].startswith("# loop-freedom on square (incremental)")
        summary, *detail = result["delta"].splitlines()
        assert summary == "1 filter change(s)"
        assert detail and all(line.startswith("  filter m:") for line in detail)

    def test_transient_document_and_report_are_one_document(self, client):
        payload = {"kind": "transient", "topology": TOPOLOGY_TEXT, "config": CONFIG_TEXT,
                   "transient": {"max_states": 500}, "forms": ["document", "report"]}
        result = client.run("forms-transient", payload, timeout=240)["result"]
        assert set(result) == self.BASE_FIELDS | {"document", "report"}
        assert result["report"] == result["document"]

    @pytest.mark.parametrize("forms", [["text", "pdf"], "text", [{"form": "text"}]])
    def test_bad_forms_fail_the_job_with_a_spec_error(self, client, forms):
        document = client.run("forms-bad", dict(VERIFY_PAYLOAD, forms=forms), timeout=120)
        assert document["state"] == "failed"
        assert "form" in document["error"]
        assert "result" not in document


class TestConcurrentPushes:
    def test_two_clients_one_namespace_serialise_in_push_order(self, server):
        """Two clients race different single-device deltas into one
        namespace.  The job queue must serialise them in push order, and
        each result must be bit-identical to a cold verify of the
        configuration as composed *in the order the server executed* —
        the edit-oracle property, now across the HTTP boundary."""
        client = ServiceClient(server.url)
        base = client.run("race", VERIFY_PAYLOAD, timeout=120)
        assert base["result"]["verdict"] == "holds"

        overlays = {"m": EDIT_M_OVERLAY, "a": EDIT_A_OVERLAY}
        receipts = {}

        def racer(device):
            local_client = ServiceClient(server.url)
            receipts[device] = local_client.push(
                "race",
                {
                    "kind": "verify",
                    "devices": {device: overlays[device]},
                    "policies": [POLICY_SPEC],
                    "options": OPTIONS_SPEC,
                },
            )

        threads = [threading.Thread(target=racer, args=(device,)) for device in overlays]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        finished = {
            device: client.wait(receipt["job"], timeout=240)
            for device, receipt in receipts.items()
        }
        assert all(doc["state"] == "done" for doc in finished.values())

        # Recover the serialisation order the server actually used, then
        # compose the deltas in that order for the cold oracles.
        ordered = sorted(finished.items(), key=lambda item: item[1]["sequence"])
        assert [doc["sequence"] for _, doc in ordered] == [2, 3]

        network = base_network()
        for device, document in ordered:
            network = network_from_payload(
                {"devices": {device: overlays[device]}}, network
            )
            assert document["result"]["signature"] == cold_signature(network), (
                f"delta push for device {device} diverged from its cold oracle"
            )

        info = client.namespace("race")
        assert info["pushes"] == 3


class TestAdmissionControl:
    def test_queue_depth_bound_rejects_with_429(self):
        instance = ReproServer(port=0, workers=0, queue_depth=1).start()
        try:
            client = ServiceClient(instance.url)
            first = client.push("stall", VERIFY_PAYLOAD)
            assert first["sequence"] == 1
            with pytest.raises(ServiceError) as excinfo:
                client.push("stall", VERIFY_PAYLOAD)
            assert "full" in str(excinfo.value)
            assert get(client, "/metrics")["jobs_rejected"] == 1
            # The queued (never-executed) job still reports as queued.
            assert client.job(first["job"])["state"] == "queued"
        finally:
            instance.stop()


class TestJobTable:
    """The daemon keeps the newest ``MAX_FINISHED_JOBS`` finished jobs: an
    older one answers 404, a queued or running one is never evicted."""

    def test_the_oldest_finished_jobs_are_evicted(self, monkeypatch):
        import repro.serve.http as http

        monkeypatch.setattr(http, "MAX_FINISHED_JOBS", 2)
        instance = ReproServer(port=0, workers=1).start()
        try:
            client = ServiceClient(instance.url)
            rerun = {"kind": "verify", "policies": [POLICY_SPEC], "options": OPTIONS_SPEC}
            jobs = [client.run("table", VERIFY_PAYLOAD, timeout=120)["job"]]
            jobs += [client.run("table", rerun, timeout=120)["job"] for _ in range(3)]
            for job_id in jobs[:2]:
                with pytest.raises(ServiceError, match="unknown job"):
                    client.job(job_id)
            assert [client.job(job_id)["state"] for job_id in jobs[2:]] == ["done", "done"]
            assert len(instance._jobs) == 2
        finally:
            instance.stop()

    def test_queued_jobs_are_never_evicted(self, monkeypatch):
        import repro.serve.http as http

        monkeypatch.setattr(http, "MAX_FINISHED_JOBS", 1)
        instance = ReproServer(port=0, workers=0, queue_depth=8).start()
        try:
            client = ServiceClient(instance.url)
            jobs = [client.push("held", VERIFY_PAYLOAD)["job"] for _ in range(3)]
            assert [client.job(job_id)["state"] for job_id in jobs] == ["queued"] * 3
        finally:
            instance.stop()


class TestHttpErrors:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("j-999999")

    def test_unknown_namespace_is_404(self, client):
        with pytest.raises(ServiceError, match="unknown namespace"):
            client.namespace("never-pushed")

    def test_invalid_namespace_name_is_400(self, client):
        with pytest.raises(ServiceError, match="bad namespace"):
            client.push("bad*name", VERIFY_PAYLOAD)

    def test_unknown_job_kind_is_400(self, client):
        with pytest.raises(ServiceError, match="unknown job kind"):
            client.push("kinds", {"kind": "nonsense"})

    def test_a_push_key_the_cli_never_sends_is_400(self, client):
        """A verify push is held to the same vocabulary as a transient one:
        an unknown top-level key is refused, never ignored."""
        with pytest.raises(ServiceError, match="unknown push field"):
            client.push("keys", dict(VERIFY_PAYLOAD, fail_session="o,m"))

    @pytest.mark.parametrize(
        "kind, field, value, message",
        [
            # The §4 ablations are a library call, not an option field.
            ("verify", "options", {"no_optimizations": True},
             "unknown option field(s): no_optimizations"),
            ("verify", "policies", [{"policy": "no-such-policy"}], "unknown policy"),
            ("verify", "policies", [{"policy": "reachability", "sources": ["zz"]}],
             "unknown device 'zz'"),
            ("transient", "options", {"cores": 0}, "bad options spec"),
            ("transient", "transient", {"por": "bogus"}, "bad transient options"),
        ],
        ids=["ablation-switch", "unknown-policy", "unknown-source", "transient-cores",
             "transient-por"],
    )
    def test_a_spec_its_job_would_refuse_is_400_and_queues_nothing(
        self, server, client, kind, field, value, message
    ):
        """Options and, on a push that carries its network, policies are
        checked when the push arrives: a job that could only fail is never
        queued."""
        payload = {"kind": kind, "topology": TOPOLOGY_TEXT, "config": CONFIG_TEXT,
                   "policies": [POLICY_SPEC], field: value}
        if kind == "transient":
            del payload["policies"]
        submitted = get(client, "/metrics")["jobs_submitted"]
        with pytest.raises(ServiceError, match=re.escape(message)):
            client.push(f"refused-{kind}-{field}", payload)
        assert get(client, "/metrics")["jobs_submitted"] == submitted

    def test_malformed_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/namespaces/raw/push",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "not valid JSON" in json.loads(excinfo.value.read())["error"]

    @staticmethod
    def _post_declaring(server, content_length, body=b""):
        """POST a push whose Content-Length header is ``content_length``,
        sending only ``body``; a server that tried to read more would hang
        until the socket timeout."""
        parsed = urllib.parse.urlsplit(server.url)
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=10)
        try:
            connection.putrequest("POST", "/v1/namespaces/limits/push")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(content_length))
            connection.endheaders(body)
            response = connection.getresponse()
            return response.status, response.getheader("Connection"), json.loads(response.read())
        finally:
            connection.close()

    def test_negative_content_length_is_400_without_reading(self, server):
        status, connection, document = self._post_declaring(server, -1)
        assert status == 400
        assert "Content-Length" in document["error"]
        assert connection == "close"

    def test_oversized_content_length_is_413_without_reading(self, server):
        from repro.serve.http import MAX_REQUEST_BYTES

        assert MAX_REQUEST_BYTES == 64 * 1024 * 1024
        status, connection, document = self._post_declaring(server, MAX_REQUEST_BYTES + 1)
        assert status == 413
        assert str(MAX_REQUEST_BYTES) in document["error"]
        assert connection == "close"

    def test_push_at_the_limit_is_accepted_and_one_byte_more_is_not(self, server, monkeypatch):
        body = json.dumps(VERIFY_PAYLOAD).encode("utf-8")
        monkeypatch.setattr("repro.serve.http.MAX_REQUEST_BYTES", len(body))
        status, _, receipt = self._post_declaring(server, len(body), body)
        assert status == 202 and receipt["job"]
        status, _, _ = self._post_declaring(server, len(body) + 1)
        assert status == 413

    @pytest.mark.parametrize(
        "options, named",
        [
            ({"max_failures": -1}, "max_failures"),
            ({"cores": 0}, "cores"),
            ({"backend": "quantum"}, "backend"),
            ({"task_retries": -1}, "task_retries"),
            ({"task_timeout": 0}, "task_timeout"),
        ],
    )
    def test_nonsense_options_are_refused_at_the_push(self, client, options, named):
        submitted = get(client, "/metrics")["jobs_submitted"]
        with pytest.raises(ServiceError, match="bad options spec") as excinfo:
            client.push("badoptions", dict(VERIFY_PAYLOAD, options=options))
        assert named in str(excinfo.value)
        assert get(client, "/metrics")["jobs_submitted"] == submitted

    @pytest.mark.parametrize(
        "section, key",
        [
            ("transient", "collect_converged"),
            ("transient", "frontier"),
            ("transient", "minimize_witnesses"),
            ("property", "include_converged"),
            ("transient", "scenario_kinds"),
            (None, "fail_session"),
        ],
    )
    def test_a_transient_field_the_cli_never_sends_is_400_and_queues_nothing(
        self, server, client, section, key
    ):
        namespace = f"unsent-{key}"
        payload = {
            "kind": "transient",
            "topology": TOPOLOGY_TEXT,
            "config": CONFIG_TEXT,
            "transient": {"max_states": 100},
            "property": {"property": "loop"},
        }
        if section is None:
            payload[key] = True
        else:
            payload[section] = dict(payload[section], **{key: True})
        submitted = get(client, "/metrics")["jobs_submitted"]
        request = urllib.request.Request(
            server.url + f"/v1/namespaces/{namespace}/push",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert key in json.loads(excinfo.value.read())["error"]
        assert get(client, "/metrics")["jobs_submitted"] == submitted
        with pytest.raises(ServiceError, match="unknown namespace"):
            client.namespace(namespace)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scenarios", ["flap:o,a"]),
            ("scenarios", ["crash:m+gray:a,a"]),
        ],
        ids=["flap-no-session", "gray-one-device"],
    )
    def test_a_session_event_that_names_no_session_is_400_and_queues_nothing(
        self, server, client, field, value
    ):
        namespace = f"nosession-{field}"
        payload = {
            "kind": "transient",
            "topology": TOPOLOGY_TEXT,
            "config": CONFIG_TEXT,
            "transient": {"max_states": 100},
            field: value,
        }
        submitted = get(client, "/metrics")["jobs_submitted"]
        request = urllib.request.Request(
            server.url + f"/v1/namespaces/{namespace}/push",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "do not peer over BGP" in json.loads(excinfo.value.read())["error"]
        assert get(client, "/metrics")["jobs_submitted"] == submitted

    def test_a_session_event_on_a_run_only_push_fails_the_job(self, client):
        """A push without its topology is checked against the session's
        network when its job runs."""
        client.run("nosession-rerun", {"kind": "transient", "topology": TOPOLOGY_TEXT,
                                       "config": CONFIG_TEXT, "transient": {"max_states": 100}},
                   timeout=120)
        document = client.run(
            "nosession-rerun",
            {"kind": "transient", "transient": {"max_states": 100}, "scenarios": ["flap:o,a"]},
            timeout=120,
        )
        assert document["state"] == "failed"
        assert "o and a do not peer over BGP" in document["error"]

    def test_first_push_without_config_fails_clearly(self, client):
        document = client.run(
            "coldstart", {"kind": "verify", "policies": [POLICY_SPEC]}, timeout=120
        )
        assert document["state"] == "failed"
        assert "first push" in document["error"]


class TestMetricsAndHealth:
    def test_health_and_metrics_shape(self, client):
        client.run("metrics-ns", VERIFY_PAYLOAD, timeout=120)
        health = get(client, "/v1/health")
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

        metrics = get(client, "/metrics")
        assert metrics["jobs_submitted"] >= 1
        counters = metrics["namespaces"]["metrics-ns"]
        assert counters["pushes"] == 1
        assert counters["jobs_done"] == 1
        assert counters["pecs_recomputed"] == 2
        assert counters["states_explored"] > 0
        assert counters["wall_clock_seconds"] > 0
        assert "metrics-ns" in get(client, "/v1/namespaces")["namespaces"]


class TestCachePersistence:
    def test_restarted_server_reloads_namespace_caches_warm(self, tmp_path):
        """A daemon restart over the same ``--cache-dir`` must come back
        warm: the first push of the new process serves every PEC from the
        per-namespace persisted cache."""
        first = ReproServer(port=0, workers=2, cache_dir=tmp_path).start()
        try:
            cold = ServiceClient(first.url).run("tenant", VERIFY_PAYLOAD, timeout=120)
            assert cold["result"]["document"]["incremental"]["pecs_recomputed"] == 2
        finally:
            first.stop()  # persists every namespace cache
        assert (tmp_path / "tenant" / "plankton_cache.json").exists()

        second = ReproServer(port=0, workers=2, cache_dir=tmp_path).start()
        try:
            warm = ServiceClient(second.url).run("tenant", VERIFY_PAYLOAD, timeout=120)
            incremental = warm["result"]["document"]["incremental"]
            assert incremental["pecs_from_cache"] == 2
            assert incremental["pecs_recomputed"] == 0
            assert warm["result"]["signature"] == cold["result"]["signature"]
        finally:
            second.stop()


class TestSessionOptionsChange:
    def test_options_change_mid_session_keeps_the_cache_safe(self, client):
        """Pushing different engine options swaps the verifier but keeps the
        fingerprint-keyed cache: results stay correct (fingerprints cover the
        result-shaping fields), and unchanged work is still reused."""
        client.run("opts", VERIFY_PAYLOAD, timeout=120)
        changed = client.run(
            "opts",
            {"kind": "verify", "policies": [POLICY_SPEC], "options": {"max_failures": 0}},
            timeout=120,
        )
        assert changed["state"] == "done"
        network = base_network()
        assert changed["result"]["signature"] == cold_signature(
            network, options_spec={"max_failures": 0}
        )


#: Overlay for device m restoring CONFIG_TEXT's local-preference (the revert).
REVERT_M_OVERLAY = EDIT_M_OVERLAY.replace("local-preference 150", "local-preference 120")


class TestConfigurationGeneration:
    """A run-only push belongs to the configuration generation before it:
    the session keeps its ``Plankton`` and what that has worked out about the
    request, so the push is lookup + decode + render — and every verdict
    along an edit / revert / options-change session still equals a cold
    verify of that step's configuration."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Call counts of what only a new generation (or a new request
        against it) may pay for."""
        from repro.core import verifier as verifier_module
        from repro.incremental import service as service_module
        from repro.topology.failures import DeviceEquivalence

        counts = {}

        def counted(name, function):
            counts[name] = 0

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            verifier_module, "compute_pecs", counted("compute_pecs", verifier_module.compute_pecs)
        )
        monkeypatch.setattr(Plankton, "__init__", counted("Plankton.__init__", Plankton.__init__))
        monkeypatch.setattr(
            DeviceEquivalence, "__init__", counted("DeviceEquivalence", DeviceEquivalence.__init__)
        )
        monkeypatch.setattr(
            service_module,
            "verification_fingerprints",
            counted("verification_fingerprints", service_module.verification_fingerprints),
        )
        return counts

    def test_session_of_edits_reruns_and_an_options_change(self, calls):
        # Its own server: the counted functions must see no other test's jobs.
        server = ReproServer(port=0, workers=1).start()
        try:
            client = ServiceClient(server.url)

            def push(expected_network, options=OPTIONS_SPEC, **payload):
                """One push; returns what the counted functions were called
                during it.  The verdict is held to the cold oracle."""
                request = dict(kind="verify", policies=[POLICY_SPEC], options=options, **payload)
                before = dict(calls)
                document = client.run("generation", request, timeout=120)
                paid = {name: calls[name] - before[name] for name in calls}
                assert document["state"] == "done"
                assert document["result"]["signature"] == cold_signature(
                    expected_network, options_spec=options
                )
                return paid, document["result"]["document"]["incremental"]

            nothing = dict.fromkeys(calls, 0)
            base = base_network()
            edited = network_from_payload({"devices": {"m": EDIT_M_OVERLAY}}, base)

            paid, accounting = push(base, topology=TOPOLOGY_TEXT, config=CONFIG_TEXT)
            assert paid["Plankton.__init__"] == 1 and paid["verification_fingerprints"] == 1
            assert accounting["pecs_recomputed"] == 2
            for _ in range(3):  # run-only: the same generation, the same request
                paid, accounting = push(base)
                assert paid == nothing
                assert accounting["pecs_from_cache"] == 2
                assert accounting["delta_summary"] == "no configuration changes"

            paid, accounting = push(edited, devices={"m": EDIT_M_OVERLAY})
            assert paid["Plankton.__init__"] == 1 and paid["verification_fingerprints"] == 1
            assert accounting["pecs_recomputed"] == 1
            paid, accounting = push(edited)
            assert paid == nothing and accounting["pecs_from_cache"] == 2

            paid, accounting = push(base, devices={"m": REVERT_M_OVERLAY})
            assert paid["Plankton.__init__"] == 1
            paid, accounting = push(base)
            assert paid == nothing and accounting["pecs_from_cache"] == 2

            # New options are a new verifier: a new generation of the same text.
            paid, accounting = push(base, options={"max_failures": 0})
            assert paid["Plankton.__init__"] == 1 and paid["verification_fingerprints"] == 1
            paid, accounting = push(base, options={"max_failures": 0})
            assert paid == nothing and accounting["pecs_from_cache"] == 2
        finally:
            server.stop()
