"""Cache-file hardening: corruption, version skew, locking, logged cold starts.

The persistent result cache is an availability feature, never a correctness
dependency: any damaged, stale or foreign cache file must load as *empty*
(a universal cache miss) with a logged warning, and a warm restart over a
damaged file must reproduce the cold verification result exactly.  The
corruption here comes from :func:`tests.faults.corrupt_cache_file` — the
same seeded harness the engine fault tests use.
"""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.config import ebgp_rfc7938
from repro.core.options import OptimizationFlags, PlanktonOptions
from repro.incremental import IncrementalVerifier, ResultCache, result_signature
from repro.exceptions import VerificationError
from repro.incremental.cache import (
    CACHE_SCHEMA_VERSION,
    EXECUTION_ONLY_OPTIONS,
    KEYED_OPTIONS,
    _object_tokens,
    _options_token,
    _seal,
    transient_fingerprint,
)
from repro.netaddr import Prefix
from repro.policies import LoopFreedom
from repro.topology import bgp_fat_tree
from tests.faults import corrupt_cache_file


def _network():
    return ebgp_rfc7938(bgp_fat_tree(2))


def _warm_cache(tmp_path):
    """Run one cold verify with a disk-backed cache; returns (file path,
    entry count, result signature) — the oracle a restart is held to."""
    service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
    result = service.verify(LoopFreedom())
    cache_file = service.cache.path
    assert cache_file is not None and cache_file.exists()
    assert len(service.cache) > 0
    return cache_file, len(service.cache), result_signature(result)


def _reload(cache_file):
    cache = ResultCache()
    count = cache.load(cache_file)
    assert count == len(cache)
    return cache


class TestCorruptionDetection:
    def test_clean_round_trip_restores_every_entry(self, tmp_path):
        """``encode_entry`` output survives sorted-key JSON, the checksum
        and ``load`` unchanged: the file holds the in-memory documents."""
        service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        service.verify(LoopFreedom())
        reloaded = _reload(service.cache.path)
        assert len(reloaded) == len(service.cache) > 0
        assert reloaded._entries == service.cache._entries

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_flip_loads_empty_with_warning(self, tmp_path, caplog, seed):
        cache_file, _, _ = _warm_cache(tmp_path)
        corrupt_cache_file(cache_file, seed=seed, mode="bitflip")
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("starting cold" in record.message for record in caplog.records)

    def test_checksum_warning_names_both_digests(self, tmp_path, caplog):
        """A flip that keeps the JSON parsable is caught by the checksum,
        and the warning shows stored-vs-computed so an operator can tell
        corruption from version skew at a glance."""
        cache_file, _, _ = _warm_cache(tmp_path)
        document = json.loads(cache_file.read_text())
        document["checksum"] = "0" * 64
        cache_file.write_text(json.dumps(document))
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("checksum" in record.message for record in caplog.records)

    def test_truncation_loads_empty_with_warning(self, tmp_path, caplog):
        cache_file, _, _ = _warm_cache(tmp_path)
        corrupt_cache_file(cache_file, mode="truncate")
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("unreadable" in record.message for record in caplog.records)

    @pytest.mark.parametrize("skew", [+1, -1])  # a newer build's file, an older build's
    def test_skewed_schema_version_loads_empty_with_warning(self, skew, tmp_path, caplog):
        cache_file, _, _ = _warm_cache(tmp_path)
        document = json.loads(cache_file.read_text())
        document["schema_version"] = CACHE_SCHEMA_VERSION + skew
        cache_file.write_text(json.dumps(document))
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("schema version" in record.message for record in caplog.records)

    def test_pre_versioning_legacy_file_loads_empty(self, tmp_path, caplog):
        """A v1-era file (bare entries dict, no header) must not be
        misread as entries; it cold-starts like any other foreign file."""
        cache_file = tmp_path / "plankton_cache.json"
        cache_file.write_text(json.dumps({"somefingerprint": {"runs": []}}))
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("schema version" in record.message for record in caplog.records)

    def test_malformed_entries_section_loads_empty(self, tmp_path, caplog):
        cache_file = tmp_path / "plankton_cache.json"
        cache_file.write_text(
            json.dumps({"schema_version": CACHE_SCHEMA_VERSION, "checksum": "x", "entries": [1, 2]})
        )
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        assert any("malformed" in record.message for record in caplog.records)


class TestVerifiedAsWritten:
    """Schema v6 on: the checksum covers the entries' bytes on disk and is
    checked with one hash before anything is parsed.  Wherever the damage
    is, the file loads as empty with exactly one warning and never raises."""

    @staticmethod
    def _damaged(cache_file, region, mode):
        """Damage the header or the entries bytes of a sound file."""
        data = bytearray(cache_file.read_bytes())
        marker = b', "entries": '
        split = data.index(marker)
        low, high = (1, split) if region == "header" else (split + len(marker), len(data) - 1)
        if mode == "truncate":
            del data[(low + high) // 2 :]
        else:
            data[(low + high) // 2] ^= 0x04
        cache_file.write_bytes(bytes(data))

    @staticmethod
    def _loads_cold_with_one_warning(cache_file, caplog):
        with caplog.at_level("WARNING", logger="repro.cache"):
            cache = _reload(cache_file)
        assert len(cache) == 0
        warnings = [r.message for r in caplog.records if r.name == "repro.cache"]
        assert len(warnings) == 1 and warnings[0].endswith("starting cold")
        return warnings[0]

    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    @pytest.mark.parametrize("region", ["header", "entries"])
    def test_damage_anywhere_is_one_warning_and_a_cold_start(
        self, tmp_path, caplog, region, mode
    ):
        cache_file, _, _ = _warm_cache(tmp_path)
        self._damaged(cache_file, region, mode)
        self._loads_cold_with_one_warning(cache_file, caplog)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_the_fault_harness_damage_is_one_warning(self, tmp_path, caplog, mode, seed):
        cache_file, _, _ = _warm_cache(tmp_path)
        corrupt_cache_file(cache_file, seed=seed, mode=mode)
        self._loads_cold_with_one_warning(cache_file, caplog)

    def test_entries_are_not_parsed_before_their_bytes_verify(self, tmp_path, monkeypatch, caplog):
        """A flipped bit that keeps the entries valid JSON (a digit) is
        caught without the entries ever reaching the JSON parser."""
        cache_file, _, _ = _warm_cache(tmp_path)
        data = bytearray(cache_file.read_bytes())
        entries_start = data.index(b', "entries": ') + len(b', "entries": ')
        digit = next(i for i in range(entries_start, len(data)) if data[i : i + 1].isdigit())
        data[digit] = ord("7") if data[digit] != ord("7") else ord("8")
        cache_file.write_bytes(bytes(data))
        parsed_sizes = []
        real_loads = json.loads
        monkeypatch.setattr(
            "repro.incremental.cache.json.loads",
            lambda text, *args, **kwargs: (
                parsed_sizes.append(len(text)), real_loads(text, *args, **kwargs)
            )[1],
        )
        message = self._loads_cold_with_one_warning(cache_file, caplog)
        assert "checksum" in message
        assert parsed_sizes and max(parsed_sizes) < 200  # the header only

    def test_a_v5_file_loads_cold_once(self, tmp_path, caplog):
        """The previous schema sealed the same layout with a checksum over
        the re-serialised entries; the version alone turns it away."""
        entries_json = json.dumps({"abc": {"kind": "verify", "pec_index": 0, "tasks": []}})
        checksum = hashlib.sha256(entries_json.encode("utf-8")).hexdigest()
        cache_file = tmp_path / "plankton_cache.json"
        cache_file.write_text(
            '{"schema_version": 5, "checksum": "%s", "entries": %s}' % (checksum, entries_json)
        )
        message = self._loads_cold_with_one_warning(cache_file, caplog)
        assert "schema version 5" in message
        # The next save heals it: one cold start, not two.
        cache = ResultCache(tmp_path)
        cache.store("abc", {"kind": "verify", "pec_index": 0, "tasks": []})
        cache.save()
        assert len(_reload(cache_file)) == 1

    def test_a_v6_file_loads_cold_once(self, tmp_path, caplog):
        """v6 sealed the same layout the same way, but its exploration
        statistics carry the two counters v7 dropped; it is turned away by
        its version before anything is parsed, not misread."""
        cache_file, _, _ = _warm_cache(tmp_path)
        sealed = cache_file.read_text()
        assert sealed.startswith('{"schema_version": %d,' % CACHE_SCHEMA_VERSION)
        cache_file.write_text(sealed.replace(str(CACHE_SCHEMA_VERSION), "6", 1))
        message = self._loads_cold_with_one_warning(cache_file, caplog)
        assert "schema version 6" in message

    def test_an_empty_file_loads_cold(self, tmp_path, caplog):
        cache_file = tmp_path / "plankton_cache.json"
        cache_file.write_bytes(b"")
        assert "unreadable" in self._loads_cold_with_one_warning(cache_file, caplog)

    def test_load_does_not_serialise_what_it_parsed(self, tmp_path, monkeypatch):
        cache_file, entries, _ = _warm_cache(tmp_path)
        monkeypatch.setattr(
            "repro.incremental.cache.json.dumps",
            lambda *args, **kwargs: pytest.fail("load re-serialised the entries"),
        )
        assert len(_reload(cache_file)) == entries

    def test_save_load_save_is_byte_identical_beside_a_concurrent_writer(self, tmp_path):
        """What :meth:`load` hands back is what was stored, byte for byte:
        saving it again reproduces the file — also while another process
        keeps replacing that file under the advisory lock."""
        cache_file, _, _ = _warm_cache(tmp_path)
        reference = cache_file.read_bytes()
        writer = multiprocessing.Process(target=_resave_forever, args=(str(cache_file),))
        writer.start()
        try:
            for round_index in range(25):
                cache = _reload(cache_file)
                assert len(cache) > 0  # never a torn or half-renamed file
                copy = tmp_path / f"copy-{round_index % 2}.json"
                cache.save(copy)
                assert copy.read_bytes() == reference
        finally:
            writer.terminate()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert cache_file.read_bytes() == reference


class TestRecoveryEndToEnd:
    @pytest.mark.parametrize("mode", ["bitflip", "truncate"])
    def test_warm_restart_over_damaged_file_reproduces_cold_result(self, tmp_path, mode):
        """The availability property: a damaged cache degrades a restart to
        a cold run — identical verdict and counters — and the fresh run
        rewrites a loadable file."""
        cache_file, _, oracle = _warm_cache(tmp_path)
        corrupt_cache_file(cache_file, seed=3, mode=mode)
        service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        assert len(service.cache) == 0  # cold-started, not misread
        result = service.verify(LoopFreedom())
        assert result_signature(result) == oracle
        assert result.incremental is not None
        assert result.incremental.pecs_from_cache == 0
        assert len(_reload(cache_file)) > 0  # the save healed the file

    def test_undamaged_restart_still_serves_from_cache(self, tmp_path):
        """Guard for the guard: hardening must not break the warm path."""
        _, _, oracle = _warm_cache(tmp_path)
        service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        assert len(service.cache) > 0
        result = service.verify(LoopFreedom())
        assert result_signature(result) == oracle
        assert result.incremental.pecs_recomputed == 0


class TestUndecodableEntry:
    """A checksummed, same-version file can still hold an entry this build's
    result classes do not accept (a field added or removed without a schema
    bump).  That is a miss with a warning, never a traceback."""

    @staticmethod
    def _rewrite(cache_file, damage):
        """Apply ``damage`` to one entry's first run document and re-seal
        the file with a valid checksum; returns the entry's fingerprint."""
        document = json.loads(cache_file.read_text())
        fingerprint = sorted(document["entries"])[0]
        damage(document["entries"][fingerprint]["tasks"][0]["runs"][0])
        # v6: the checksum covers the entries' bytes as they sit in the file.
        cache_file.write_text(_seal(json.dumps(document["entries"], sort_keys=True)))
        return fingerprint

    @pytest.mark.parametrize(
        "damage",
        [
            lambda run: run.pop("converged_states"),  # has a default: must not be filled in
            lambda run: run["statistics"].pop("reduction"),
            lambda run: run.update(verdict="holds"),
            lambda run: run["statistics"]["reduction"].update(extra=1),
            lambda run: run.update(failure=[0]),  # the v4 shape of a nested document
        ],
        ids=["missing", "missing-nested", "extra", "extra-nested", "wrong-shape"],
    )
    def test_entry_with_a_missing_or_unknown_key_is_a_logged_miss(
        self, tmp_path, caplog, damage
    ):
        cache_file, entries, oracle = _warm_cache(tmp_path)
        fingerprint = self._rewrite(cache_file, damage)
        service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        assert len(service.cache) == entries  # the file itself is sound
        with caplog.at_level("WARNING", logger="repro.cache"):
            result = service.verify(LoopFreedom())
        assert result_signature(result) == oracle
        assert result.incremental.pecs_recomputed == 1
        warnings = [r.message for r in caplog.records if "does not decode" in r.message]
        assert len(warnings) == 1 and fingerprint[:16] in warnings[0]
        # The recomputed entry replaced the bad one: the next run is all-hit.
        again = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        assert again.verify(LoopFreedom()).incremental.pecs_recomputed == 0

    def test_cli_verifies_cold_and_exits_zero_over_a_bad_entry(self, tmp_path, capsys):
        from repro.cli import main

        inputs = os.path.join(os.path.dirname(__file__), "..", "examples", "configs")
        argv = [
            "verify",
            "--topology", os.path.join(inputs, "campus.topo"),
            "--config", os.path.join(inputs, "campus.cfg"),
            "--policy", "loop",
            "--cache-dir", str(tmp_path),
            "--json",
        ]  # fmt: skip
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        self._rewrite(tmp_path / "plankton_cache.json", lambda run: run.pop("pec_index"))
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["incremental"]["pecs_recomputed"] == 1
        for document in (cold, warm):
            del document["elapsed_seconds"], document["incremental"]
        assert warm == cold


class TestUnchangedStoreIsNotRewritten:
    @staticmethod
    def _identity(cache_file):
        status = os.stat(cache_file)
        return status.st_ino, status.st_mtime_ns

    def test_all_hit_verify_leaves_the_file_alone(self, tmp_path):
        cache_file, _, oracle = _warm_cache(tmp_path)
        before = self._identity(cache_file)
        service = IncrementalVerifier(_network(), PlanktonOptions(), cache_dir=tmp_path)
        result = service.verify(LoopFreedom())
        assert result.incremental.tasks_recomputed == 0
        assert result_signature(result) == oracle
        assert service.save() == cache_file
        assert self._identity(cache_file) == before

    def test_verify_that_stores_an_entry_replaces_the_file(self, tmp_path):
        cache_file, entry_count, _ = _warm_cache(tmp_path)
        before = self._identity(cache_file)
        service = IncrementalVerifier(
            _network(), PlanktonOptions(max_failures=1), cache_dir=tmp_path
        )
        assert service.verify(LoopFreedom()).incremental.tasks_recomputed > 0
        assert self._identity(cache_file)[0] != before[0]  # temp file renamed over it
        assert len(_reload(cache_file)) > entry_count

    def test_explicit_path_and_new_directory_still_write(self, tmp_path):
        cache = ResultCache(tmp_path / "fresh")
        assert cache.save() == tmp_path / "fresh" / "plankton_cache.json"
        assert len(_reload(cache.path)) == 0  # an empty store is still a loadable file
        before = self._identity(cache.path)
        assert cache.save() == cache.path and self._identity(cache.path) == before
        copy = cache.save(tmp_path / "copy.json")
        assert copy.exists() and len(_reload(copy)) == 0
        cache.save(cache.path)  # naming the path asks for a write
        assert self._identity(cache.path)[0] != before[0]


_KEY_SCRIPT = """
from repro.incremental.cache import _object_tokens, _sha
from repro.transient.properties import TransientBlackHoleFreedom

class Nested:
    def __init__(self):
        self.table = {"x": (frozenset("pqrst"), [set("uvwxy")])}

print(_sha(_object_tokens([TransientBlackHoleFreedom(sources=list("abcde")), Nested()])))
"""


class TestProcessStableKeys:
    def test_a_set_valued_attribute_keys_the_same_under_every_hash_seed(self):
        """``TransientBlackHoleFreedom`` keeps its sources as a set, whose
        ``repr`` follows ``PYTHONHASHSEED``: the key must not, or a
        ``--cache-dir`` never hits across processes."""
        source = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        keys = set()
        for seed in ("1", "2", "3"):
            environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source)
            keys.add(
                subprocess.run(
                    [sys.executable, "-c", _KEY_SCRIPT],
                    env=environment, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert len(keys) == 1


class TestAddressFreeKeys:
    def test_an_attribute_keyed_by_its_address_is_refused(self):
        """A default ``repr`` spells a memory address: a freed address can be
        reused by another object (a false hit in a long-lived daemon), and
        no other process sees it, so such a token raises instead of keying."""

        class Holding(LoopFreedom):
            def __init__(self):
                super().__init__()
                self.marker = object()

        with pytest.raises(VerificationError, match=r"Holding\.marker"):
            _object_tokens([Holding()])
        verifier = IncrementalVerifier(ebgp_rfc7938(bgp_fat_tree(4)), PlanktonOptions())
        with pytest.raises(VerificationError, match=r"Holding\.marker"):
            verifier.verify(Holding())

    def test_every_built_in_request_object_keys(self):
        """What the CLI and ``repro serve`` build — every policy, transient
        property and lifecycle event — holds lists, strings, prefixes, sets
        and bools, and keys without complaint."""
        from repro.policies import (
            BlackHoleFreedom,
            BoundedPathLength,
            MultipathConsistency,
            PathConsistency,
            Reachability,
            Segmentation,
            Waypoint,
        )
        from repro.scenarios.events import (
            Converge,
            FailSession,
            GrayFailure,
            MaintenanceDrain,
            NodeCrash,
            NodeRestart,
            ReturnToService,
            Scenario,
        )
        from repro.transient.properties import (
            TransientBlackHoleFreedom,
            TransientLoopFreedom,
        )

        prefix = Prefix("10.0.0.0/24")
        objects = [
            LoopFreedom(prefix),
            Reachability(["a", "b"], prefix, any_branch=True),
            Waypoint(["a"], ["w"], prefix),
            BlackHoleFreedom(prefix, ["a"]),
            BoundedPathLength(3, ["a"], prefix),
            MultipathConsistency(["a"], prefix),
            PathConsistency(["a", "b"], prefix),
            Segmentation(["a"], ["p"], prefix),
            TransientLoopFreedom(),
            TransientBlackHoleFreedom(["a", "b"]),
            Converge(),
            FailSession("a", "b"),
            NodeCrash("a"),
            NodeRestart("a"),
            MaintenanceDrain("a"),
            ReturnToService("a"),
            Scenario((FailSession("a", "b"), FailSession("b", "c")), name="storm"),
            GrayFailure("a", "b"),
        ]
        classes = {type(value) for value in objects}
        assert len(classes) == len(objects)
        assert len(_object_tokens(objects)) == len(objects)


class TestKeyByExclusion:
    """Every option field is either keyed or declared execution-only, so a
    new field cannot silently stay out of the key: here it fails until it is
    put in one of the two sets (:mod:`repro.incremental.cache`)."""

    #: A value other than the default for every execution-only field.
    EXECUTION_ONLY = {
        "cores": 2,
        "task_timeout": 5.0,
        "task_retries": 0,
    }
    #: ... and for every keyed one.
    KEYED = {
        "max_failures": 1,
        "optimizations": OptimizationFlags().without(deterministic_nodes=True),
        "stop_at_first_violation": False,
        "max_states_per_pec": 5,
        "max_seconds_per_pec": 1.0,
        "fast_ospf": False,
        "bitstate_bits": 1 << 10,
    }
    #: A TransientOptions has no execution-only field: every one is keyed.
    TRANSIENT = {
        "max_states": 7,
        "max_depth": 3,
        "stop_at_first_violation": False,
        "collect_converged": True,
        "por": "full",
        "scenario_events": 1,
    }

    def test_every_engine_option_is_in_exactly_one_set(self):
        names = {field.name for field in dataclasses.fields(PlanktonOptions)}
        keyed = set(KEYED_OPTIONS)
        assert len(keyed) == len(KEYED_OPTIONS)
        assert not keyed & EXECUTION_ONLY_OPTIONS
        assert keyed | EXECUTION_ONLY_OPTIONS == names
        assert set(self.KEYED) == keyed and set(self.EXECUTION_ONLY) == EXECUTION_ONLY_OPTIONS

    def test_only_the_keyed_options_move_the_key(self):
        default = _options_token(PlanktonOptions())
        for name, value in self.EXECUTION_ONLY.items():
            assert _options_token(PlanktonOptions(**{name: value})) == default, name
        for name, value in self.KEYED.items():
            assert _options_token(PlanktonOptions(**{name: value})) != default, name

    def test_every_transient_option_moves_the_key(self):
        from repro.transient.explorer import TransientOptions, TransientTaskConfig

        names = {field.name for field in dataclasses.fields(TransientOptions)}
        assert set(self.TRANSIENT) == names

        def key(**changed):
            config = TransientTaskConfig(properties=(), options=TransientOptions(**changed))
            return transient_fingerprint("base", config, PlanktonOptions(), ())

        default = key()
        for name, value in self.TRANSIENT.items():
            assert key(**{name: value}) != default, name


class TestConcurrentWriters:
    def test_two_processes_saving_leave_a_loadable_file(self, tmp_path):
        """Many writers, one file: whatever save wins the last rename, the
        file must parse, checksum and load — never a torn interleaving."""
        cache_file = tmp_path / "plankton_cache.json"
        processes = [
            multiprocessing.Process(
                target=_hammer_save, args=(str(cache_file), worker)
            )
            for worker in range(4)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        cache = _reload(cache_file)
        assert len(cache) == 50  # every writer stores the same 50 keys
        document = json.loads(cache_file.read_text())
        assert document["schema_version"] == CACHE_SCHEMA_VERSION


class TestKillDuringSave:
    def test_sigkill_mid_save_never_leaves_a_torn_file(self, tmp_path):
        """The service-shutdown property: SIGKILL at an arbitrary point of a
        save (temp-file write, fsync, rename) must leave the *previous*
        complete generation on disk — the loader never sees a torn file."""
        cache_file = tmp_path / "plankton_cache.json"
        seed = ResultCache()
        for index in range(50):
            seed.store(f"fingerprint-{index}", {"generation": -1, "index": index})
        seed.save(cache_file)

        for attempt in range(6):
            process = multiprocessing.Process(
                target=_save_forever, args=(str(cache_file),)
            )
            process.start()
            # Vary the kill point so different attempts land in different
            # phases of the write/fsync/rename sequence.
            time.sleep(0.01 + attempt * 0.017)
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=30)
            assert process.exitcode == -signal.SIGKILL

            cache = _reload(cache_file)
            assert len(cache) == 50  # some complete generation, never torn
            document = json.loads(cache_file.read_text())
            assert document["schema_version"] == CACHE_SCHEMA_VERSION

        # A later clean save still works (no leaked lock, no wedged state).
        seed.save(cache_file)
        assert len(_reload(cache_file)) == 50


def _resave_forever(path):
    """Child body for the round-trip test: load the file and save it back,
    over and over, until terminated."""
    while True:
        cache = ResultCache()
        cache.load(path)
        cache.save(path)


def _hammer_save(path, worker):
    cache = ResultCache()
    for index in range(50):
        cache.store(f"fingerprint-{index}", {"worker": worker, "index": index})
    for _ in range(20):
        cache.save(path)


def _save_forever(path):
    """Child body for the SIGKILL test: rewrite the cache as fast as possible
    with a per-generation payload until killed."""
    cache = ResultCache()
    generation = 0
    while True:
        generation += 1
        for index in range(50):
            cache.store(f"fingerprint-{index}", {"generation": generation, "index": index})
        cache.save(path)
