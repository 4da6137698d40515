"""The fleet layer: job model, result store, scheduler, incremental re-runs.

The headline contract (the ISSUE's acceptance criteria): a warm
resubmit of an unchanged campaign computes zero cells, and every
assembly path — cold, warm, multiprocess, killed-and-resumed — produces
a ``StudyResult.to_json()`` byte-identical to the cold sequential run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.crypto.rsa as rsa
from repro.core.study import WideLeakStudy
from repro.fleet import Campaign, FleetError, FleetScheduler, ResultStore
from repro.fleet.job import device_key_address, profile_fingerprint
from repro.fleet.scheduler import _load_device_keys, _stored_key
from repro.license_server.provisioning import DEVICE_RSA_BITS
from repro.ott.registry import ALL_PROFILES, profile_by_name

REPO = Path(__file__).resolve().parent.parent

SMALL = ALL_PROFILES[:3]


def sequential_json(profiles) -> str:
    return WideLeakStudy(profiles=profiles).run().to_json()


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


class TestJobModel:
    def test_cells_world_first_then_audits_in_profile_order(self):
        campaign = Campaign(profiles=SMALL)
        cells = campaign.cells()
        assert cells[0].cell_id == "world"
        assert [c.app for c in cells[1:]] == [p.name for p in SMALL]

    def test_attack_cells_included_on_request(self):
        ids = [c.cell_id for c in Campaign(profiles=SMALL, include_attacks=True).cells()]
        assert "attack-netflix" in ids

    def test_cache_keys_are_deterministic(self):
        a = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        b = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        assert a == b

    def test_profile_change_invalidates_exactly_that_apps_cells(self):
        base = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        bumped = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        changed = {c.cell_id: c.key for c in Campaign(profiles=bumped).cells()}
        # The world key covers every fingerprint; the touched app's
        # audit key changes; the other audits stay warm.
        assert changed["world"] != base["world"]
        assert changed["audit-netflix"] != base["audit-netflix"]
        assert changed["audit-disneyplus"] == base["audit-disneyplus"]

    def test_seed_change_invalidates_everything(self):
        base = {c.cell_id: c.key for c in Campaign(profiles=SMALL).cells()}
        other = {c.cell_id: c.key for c in Campaign(profiles=SMALL, seed=1).cells()}
        assert all(base[cid] != other[cid] for cid in base)

    def test_fingerprint_sees_profile_internals(self):
        bumped = dataclasses.replace(
            SMALL[0], installs_millions=SMALL[0].installs_millions + 1
        )
        assert profile_fingerprint(SMALL[0]) != profile_fingerprint(bumped)

    def test_manifest_round_trip(self):
        campaign = Campaign(profiles=SMALL, seed=7, include_attacks=True)
        rebuilt = Campaign.from_manifest(campaign.to_manifest())
        assert rebuilt.campaign_id == campaign.campaign_id
        assert [c.key for c in rebuilt.cells()] == [c.key for c in campaign.cells()]


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"x": 1})
        assert store.get("ab" * 32) == {"x": 1}
        assert store.contains("ab" * 32)
        assert store.get("cd" * 32) is None

    def test_delete_and_keys(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"x": 1})
        store.put("bb" * 32, {"y": 2})
        assert store.delete("aa" * 32)
        assert not store.delete("aa" * 32)
        assert store.keys() == ("bb" * 32,)

    def test_objects_survive_a_new_store_instance(self, tmp_path):
        ResultStore(tmp_path).put("aa" * 32, {"x": 1})
        assert ResultStore(tmp_path).get("aa" * 32) == {"x": 1}

    def test_manifest_rebuilt_from_objects_after_corruption(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"x": 1})
        (tmp_path / "manifest.json").write_text("{not json")
        fresh = ResultStore(tmp_path)
        assert fresh.get("aa" * 32) == {"x": 1}
        assert fresh.stats()["objects"] == 1

    def test_lru_eviction_drops_least_recently_used(self, tmp_path):
        payload = {"blob": "x" * 100}
        size = len(json.dumps(payload, indent=2, sort_keys=True).encode())
        store = ResultStore(tmp_path, max_bytes=3 * size)
        for index in range(3):
            store.put(f"{index:02d}" * 32, payload)
        store.get("00" * 32)  # refresh: 01 becomes the LRU entry
        store.put("03" * 32, payload)
        assert store.contains("00" * 32)
        assert not store.contains("01" * 32)
        assert store.stats()["evictions"] == 1

    def test_gc_honours_explicit_bound(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(4):
            store.put(f"{index:02d}" * 32, {"blob": "x" * 100})
        evicted = store.gc(max_bytes=0)
        assert evicted == 4
        assert store.keys() == ()

    def test_concurrent_writers_never_tear_an_object(self, tmp_path):
        """Hammer one key from many threads over two store instances —
        every read must see one writer's complete payload."""
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]
        key = "ee" * 32
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                for i in range(20):
                    stores[worker % 2].put(
                        key, {"worker": worker, "i": i, "pad": "y" * 50}
                    )
                    seen = stores[(worker + 1) % 2].get(key)
                    assert seen is not None and set(seen) == {"worker", "i", "pad"}
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert set(ResultStore(tmp_path).get(key)) == {"worker", "i", "pad"}

    def test_concurrent_manifest_updates_lose_no_entries(self, tmp_path):
        """Distinct keys written through two store instances (the
        worker-process shape: each holds its own manifest lock fd) must
        all land in manifest.json without waiting for a reconcile —
        last-replace-wins on the index would silently drop some."""
        stores = [ResultStore(tmp_path), ResultStore(tmp_path)]

        def writer(worker: int) -> None:
            for i in range(20):
                key = f"{worker:02d}{i:02d}".ljust(64, "0")
                stores[worker].put(key, {"worker": worker, "i": i})

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert len(manifest["entries"]) == 40


    def test_reads_block_leaves_the_manifest_bare_gets_leave(self, tmp_path):
        """One reads() block and one transaction per get must end with
        the same hits, misses and recency sequence, byte for byte."""
        keys = [f"{index:02d}" * 32 for index in range(3)]
        missing = "ff" * 32
        sequence = [keys[2], keys[0], missing, keys[2], keys[1], missing]
        manifests = []
        for name in ("bare", "batched"):
            store = ResultStore(tmp_path / name)
            for index, key in enumerate(keys):
                store.put(key, {"i": index})
            if name == "bare":
                seen = [store.get(key) for key in sequence]
            else:
                with store.reads():
                    seen = [store.get(key) for key in sequence]
            assert seen == [{"i": 2}, {"i": 0}, None, {"i": 2}, {"i": 1}, None]
            manifests.append((tmp_path / name / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["hits"] == 4
        assert json.loads(manifests[0])["misses"] == 2

    def test_reads_block_writes_the_manifest_once_on_exit(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        store.put("aa" * 32, {"x": 1})
        replaced: list[str] = []
        real_replace = os.replace

        def counting(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        with store.reads():
            for _ in range(5):
                assert store.get("aa" * 32) == {"x": 1}
            assert store.get("bb" * 32) is None
            assert replaced == []
        assert replaced == ["manifest.json"]
        assert store.stats()["hits"] == 5

    def test_two_processes_batching_reads_keep_exact_totals(self, tmp_path):
        """Interleaved reads() blocks and puts from two processes on one
        root: the flock must keep every batch's hits and misses."""
        shared = "5a" * 32
        ResultStore(tmp_path).put(shared, {"shared": True})
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_batched_reader, args=(str(tmp_path), worker, barrier)
            )
            for worker in range(2)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0]
        stats = ResultStore(tmp_path).stats()
        rounds = 2 * _BATCHED_ROUNDS
        assert stats["hits"] == 2 * rounds
        assert stats["misses"] == rounds
        assert stats["objects"] == 1 + rounds


# Rounds per process in the two-process batching test; each round puts
# one key and reads it, the shared key and one missing key in a block.
_BATCHED_ROUNDS = 25


def _batched_reader(root: str, worker: int, barrier) -> None:
    store = ResultStore(root)
    barrier.wait()
    for index in range(_BATCHED_ROUNDS):
        key = f"{worker:02d}{index:02d}".ljust(64, "0")
        store.put(key, {"worker": worker, "i": index})
        with store.reads():
            assert store.get(key) == {"worker": worker, "i": index}
            assert store.get("5a" * 32) == {"shared": True}
            assert store.get(f"{worker:02d}{index:02d}".ljust(64, "f")) is None


# ---------------------------------------------------------------------------
# Scheduler: cold / warm / invalidation
# ---------------------------------------------------------------------------


class TestIncrementalRuns:
    def test_cold_fleet_run_matches_sequential_byte_for_byte(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(Campaign(profiles=SMALL))
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["computed"] == len(SMALL) + 1
        assert (outcome.campaign_dir / "result.json").is_file()

    def test_warm_resubmit_of_unchanged_campaign_computes_zero_cells(self, tmp_path):
        """The acceptance criterion, on the paper's full ten-app set."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=ALL_PROFILES)
        cold = scheduler.submit(campaign)
        warm = scheduler.submit(Campaign(profiles=ALL_PROFILES))
        assert warm.stats["computed"] == 0
        assert warm.stats["cache_hits"] == len(ALL_PROFILES) + 1
        expected = sequential_json(ALL_PROFILES)
        assert cold.result.to_json() == expected
        assert warm.result.to_json() == expected

    def test_second_warm_resubmit_rewrites_only_the_store_manifest(
        self, tmp_path, monkeypatch
    ):
        """The warm-path contract: once the first warm resubmit has
        turned computed markers into cache hits, a further resubmit of
        the unchanged campaign is reads plus one manifest write."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=ALL_PROFILES, include_attacks=True)
        cells = len(campaign.cells())
        cold = scheduler.submit(campaign)
        done_dir = cold.campaign_dir / "done"

        def markers() -> list[dict]:
            return [json.loads(p.read_text()) for p in done_dir.glob("*.json")]

        assert all(m["computed"] for m in markers())
        first = FleetScheduler(tmp_path).submit(campaign)
        assert first.stats == {**cold.stats, "computed": 0, "cache_hits": cells}
        assert all(m["cache_hit"] and not m["computed"] for m in markers())

        def snapshot() -> dict[str, tuple[int, int, int]]:
            return {
                str(path.relative_to(tmp_path)): (
                    path.stat().st_ino,
                    path.stat().st_mtime_ns,
                    path.stat().st_size,
                )
                for path in tmp_path.rglob("*")
                if path.is_file()
            }

        before = snapshot()
        replaced: list[str] = []
        real_replace = os.replace

        def counting(src, dst):
            replaced.append(str(Path(dst).relative_to(tmp_path)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting)
        second = FleetScheduler(tmp_path).submit(campaign)
        after = snapshot()
        assert second.stats["computed"] == 0
        assert second.stats["cache_hits"] == cells == 21
        assert replaced == ["store/manifest.json"]
        assert set(before) == set(after)
        assert {
            name for name in before if before[name] != after[name]
        } == {"store/manifest.json"}
        assert second.result.to_json() == cold.result.to_json()
        assert {n: a.to_dict() for n, a in second.attacks.items()} == {
            n: a.to_dict() for n, a in cold.attacks.items()
        }

    def test_single_profile_invalidation_recomputes_only_its_cells(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        scheduler.submit(Campaign(profiles=SMALL))
        bumped = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        outcome = scheduler.submit(Campaign(profiles=bumped))
        # Exactly the world cell (covers all fingerprints) and the
        # touched app's audit recompute; the other audits stay warm.
        assert outcome.stats["computed"] == 2
        assert outcome.stats["cache_hits"] == len(SMALL) - 1
        assert outcome.result.to_json() == sequential_json(bumped)

    def test_edited_registry_profile_is_refused_at_jobs_2_but_runs_at_1(
        self, tmp_path
    ):
        # Workers rebuild the campaign by profile name, so an edit to a
        # registry-named profile could not reach them: the scheduler
        # refuses before spawning any worker instead of waiting forever.
        scheduler = FleetScheduler(tmp_path)
        bumped = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        with pytest.raises(FleetError, match="not an unedited registry profile"):
            scheduler.submit(Campaign(profiles=bumped), jobs=2)
        assert scheduler.status() == []
        outcome = scheduler.submit(Campaign(profiles=bumped), jobs=1)
        assert outcome.result.to_json() == sequential_json(bumped)

    def test_multiprocess_run_is_byte_identical_and_steals(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(
            Campaign(profiles=SMALL), jobs=2
        )
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["workers"] == 2

    def test_attack_cells_ride_along_without_touching_the_artifact(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(
            Campaign(profiles=SMALL, include_attacks=True)
        )
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert set(outcome.attacks) == {p.name for p in SMALL}
        assert outcome.attacks["Netflix"].device_model

    def test_fleet_telemetry_rides_a_separate_bus(self, tmp_path):
        outcome = FleetScheduler(tmp_path).submit(Campaign(profiles=SMALL))
        names = set(outcome.obs.span_names())
        assert {"fleet.campaign", "fleet.reconcile", "fleet.execute",
                "fleet.assemble"} <= names
        counters = outcome.obs.metrics.counters()
        assert counters["fleet.cells.total"] == len(SMALL) + 1
        # The artifact bus never carries fleet counters.
        artifact_counters = outcome.result.obs.metrics.counters()
        assert not any(name.startswith("fleet.") for name in artifact_counters)


# ---------------------------------------------------------------------------
# Scheduler: crash, retry, resume
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_injected_worker_death_retries_with_backoff_inline(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-disneyplus": 1})
        outcome = FleetScheduler(tmp_path).submit(campaign)
        assert outcome.stats["retries"] == 1
        assert outcome.result.to_json() == sequential_json(SMALL)

    def test_injected_worker_death_retries_across_processes(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-netflix": 1})
        outcome = FleetScheduler(tmp_path).submit(campaign, jobs=2)
        assert outcome.stats["retries"] >= 1
        assert outcome.result.to_json() == sequential_json(SMALL)

    def test_cell_out_of_retries_fails_the_campaign(self, tmp_path):
        campaign = Campaign(profiles=SMALL, faults={"audit-netflix": 99})
        with pytest.raises(FleetError, match="attempts"):
            FleetScheduler(tmp_path).submit(campaign)

    def test_kill_dash_nine_mid_campaign_then_resume_reaches_same_artifact(
        self, tmp_path
    ):
        """Hard-kill `repro fleet submit` mid-campaign from outside, then
        resume: the checkpoint log + store must carry it to an artifact
        byte-identical to the uninterrupted sequential run."""
        profiles = ALL_PROFILES[:5]
        root = tmp_path / "fleet"
        apps = [p.name for p in profiles]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "fleet", "submit",
             "--root", str(root), "--apps", *apps],
            cwd=REPO,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            campaign_id = Campaign(profiles=profiles).campaign_id
            done_dir = root / "campaigns" / campaign_id / "done"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(done_dir.glob("*.json"))) >= 1:
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.005)
            else:
                pytest.fail("fleet submit never produced a done marker")
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL, (
            "campaign finished before the kill; widen the window"
        )
        scheduler = FleetScheduler(root)
        status = {row["campaign_id"]: row for row in scheduler.status()}
        assert status[campaign_id]["state"] == "interrupted"
        resumed = scheduler.resume(campaign_id)
        assert resumed.result.to_json() == sequential_json(profiles)
        # And the checkpoint now reads complete.
        status = {row["campaign_id"]: row for row in scheduler.status()}
        assert status[campaign_id]["state"] == "complete"

    def test_temp_file_debris_never_reaches_json_scans(self, tmp_path):
        """A kill -9 between temp write and os.replace leaves a temp
        file behind. It must not end in ``.json`` (every queue/claimed/
        done scan globs that — pathlib's glob matches dot-prefixed
        names too), and resume must sweep it rather than crash parsing
        its name as a ticket or cell id."""
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=SMALL)
        scheduler.submit(campaign)
        campaign_dir = scheduler.campaign_dir(campaign)
        debris = [
            # Current naming: "<name>.tmp-<pid>-<n>" — no .json suffix.
            campaign_dir / "queue" / "w0" / "0007-audit-x.json.tmp-99-0",
            # Dot-prefixed naming of earlier revisions DID match
            # glob("*.json"); planted in every scanned directory, the
            # old reconcile died on int("tmp") / cell_by_id("tmp...").
            campaign_dir / "queue" / "w0" / ".tmp-99-0007-audit-x.json",
            campaign_dir / "claimed" / "w0" / ".tmp-99-audit-x.json",
            campaign_dir / "done" / ".tmp-99-world.json",
        ]
        for path in debris:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("{half-written")
        outcome = scheduler.resume(campaign.campaign_id)
        assert outcome.result.to_json() == sequential_json(SMALL)
        assert outcome.stats["computed"] == 0  # debris is not work
        for path in debris:
            assert not path.exists(), f"{path.name} survived the sweep"

    def test_atomic_write_temp_names_are_invisible_to_json_globs(
        self, tmp_path
    ):
        from repro.fleet.scheduler import _write_json_atomic

        target = tmp_path / "lane" / "0001-cell.json"
        _write_json_atomic(target, {"ok": True})
        # The replace happened; had it been interrupted, the temp name
        # must not have matched the ticket scans.
        assert [p.name for p in target.parent.glob("*.json")] == [target.name]
        tmp_name = f"{target.name}.tmp-1234-0"
        (target.parent / tmp_name).write_text("{half")
        assert [p.name for p in target.parent.glob("*.json")] == [target.name]

    def test_resume_without_id_requires_an_interrupted_campaign(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        with pytest.raises(FleetError, match="no interrupted campaign"):
            scheduler.resume()

    def test_store_too_small_to_hold_the_campaign_fails_loudly(self, tmp_path):
        scheduler = FleetScheduler(tmp_path, max_store_bytes=64)
        with pytest.raises(FleetError, match="evict"):
            scheduler.submit(Campaign(profiles=SMALL))

    def test_evicted_cell_is_recomputed_on_resubmit(self, tmp_path):
        scheduler = FleetScheduler(tmp_path)
        campaign = Campaign(profiles=SMALL)
        scheduler.submit(campaign)
        evicted_key = campaign.cells()[1].key  # audit-netflix
        assert scheduler.store.delete(evicted_key)
        outcome = scheduler.submit(Campaign(profiles=SMALL))
        assert outcome.stats["computed"] == 1
        assert outcome.result.to_json() == sequential_json(SMALL)


# ---------------------------------------------------------------------------
# Device keys as store objects
# ---------------------------------------------------------------------------


@pytest.fixture
def keygen_log(tmp_path, monkeypatch):
    """Empty this process's key cache and log every real device keygen
    to a file; forked workers inherit both, so the log covers them.
    Returns a function listing the generated labels."""
    log = tmp_path / "keygen.log"
    real = rsa.derive_rng

    def logging_derive_rng(label, *args, **kwargs):
        if label.startswith("device-rsa/"):
            with open(log, "a") as handle:
                handle.write(label + "\n")
        return real(label, *args, **kwargs)

    monkeypatch.setattr(rsa, "_KEY_CACHE", {})
    monkeypatch.setattr(rsa, "derive_rng", logging_derive_rng)
    return lambda: log.read_text().split() if log.exists() else []


def _key_objects(campaign: Campaign) -> dict[str, str]:
    """Device key label -> store address, for every key *campaign* mints."""
    return {
        label: device_key_address(label, DEVICE_RSA_BITS)
        for label in campaign.device_key_labels()
    }


class TestDeviceKeys:
    def test_labels_follow_the_provisioning_revocation_check(self):
        everyone = Campaign(profiles=ALL_PROFILES).device_key_labels()
        assert len(everyone) == 2
        revoking = Campaign(
            profiles=(profile_by_name("Disney+"), profile_by_name("HBO Max"))
        ).device_key_labels()
        assert revoking == everyone[:1]  # the L1 key only

    def test_cold_jobs2_submit_generates_each_device_key_once(
        self, tmp_path, study_json, keygen_log
    ):
        campaign = Campaign(profiles=ALL_PROFILES)
        outcome = FleetScheduler(tmp_path / "fleet").submit(campaign, jobs=2)
        assert sorted(keygen_log()) == sorted(campaign.device_key_labels())
        assert outcome.result.to_json() == study_json
        store = ResultStore(tmp_path / "fleet" / "store")
        for label, address in _key_objects(campaign).items():
            assert _stored_key(store.get(address), label) is not None

    def test_more_workers_than_cores_generate_each_key_once(
        self, tmp_path, keygen_log
    ):
        """Four processes warm one fresh store at once, two per key
        start index: a lost single-flight shows as a second keygen."""
        campaign = Campaign(profiles=ALL_PROFILES)
        store_root = tmp_path / "store"

        def warm(index: int) -> None:
            _load_device_keys(ResultStore(store_root), campaign, index)
            with open(tmp_path / f"loaded-{index}", "w") as handle:
                for label in campaign.device_key_labels():
                    key = rsa._KEY_CACHE[(label.encode(), DEVICE_RSA_BITS)]
                    handle.write(f"{label} {key.n}\n")

        ctx = multiprocessing.get_context("fork")  # inherits the keygen log
        procs = [ctx.Process(target=warm, args=(i,)) for i in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert not any(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
        assert sorted(keygen_log()) == sorted(campaign.device_key_labels())
        loaded = {(tmp_path / f"loaded-{i}").read_text() for i in range(4)}
        assert len(loaded) == 1

    def test_revoking_campaign_never_generates_the_legacy_key(
        self, tmp_path, keygen_log
    ):
        profiles = (profile_by_name("Disney+"), profile_by_name("HBO Max"))
        campaign = Campaign(profiles=profiles, include_attacks=True)
        outcome = FleetScheduler(tmp_path / "fleet").submit(campaign)
        assert keygen_log() == list(campaign.device_key_labels())
        assert len(keygen_log()) == 1
        assert outcome.result.to_json() == sequential_json(profiles)

    def test_edited_profile_resubmit_loads_keys(self, tmp_path, request):
        scheduler = FleetScheduler(tmp_path / "fleet")
        scheduler.submit(Campaign(profiles=SMALL))
        generated = request.getfixturevalue("keygen_log")
        edited = (
            dataclasses.replace(
                SMALL[0], installs_millions=SMALL[0].installs_millions + 1
            ),
        ) + tuple(SMALL[1:])
        outcome = scheduler.submit(Campaign(profiles=edited))
        assert outcome.stats["computed"] == 2
        assert generated() == []
        assert outcome.result.to_json() == sequential_json(edited)

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda p: {**p, "secret": p["secret"][:-40]}, id="torn"),
            pytest.param(
                lambda p: {**p, "secret": p["secret"] + "00"}, id="trailing"
            ),
            pytest.param(lambda p: {**p, "secret": "zz"}, id="not-hex"),
            pytest.param(lambda p: {**p, "label": "device-rsa/other"}, id="label"),
            pytest.param(lambda p: {"label": p["label"]}, id="no-secret"),
            pytest.param(lambda p: [p], id="not-an-object"),
        ],
    )
    def test_stored_key_rejects_damaged_objects(self, mutate):
        label = Campaign(profiles=SMALL).device_key_labels()[0]
        key = rsa.generate_keypair(DEVICE_RSA_BITS, label=label)
        payload = {
            "label": label,
            "bits": DEVICE_RSA_BITS,
            "secret": key.export_secret().hex(),
        }
        assert _stored_key(payload, label) == key
        assert _stored_key(mutate(payload), label) is None

    def test_corrupt_and_inconsistent_key_objects_are_regenerated(
        self, tmp_path, request
    ):
        scheduler = FleetScheduler(tmp_path / "fleet")
        campaign = Campaign(profiles=SMALL)
        scheduler.submit(campaign)
        keys = _key_objects(campaign)
        (l1, l1_address), (legacy, legacy_address) = keys.items()
        good = {
            label: _stored_key(scheduler.store.get(address), label)
            for label, address in keys.items()
        }
        # Inconsistent: a private exponent that no longer inverts e.
        bad = good[l1]
        blob = dataclasses.replace(bad, d=bad.d + 2).export_secret()
        with pytest.raises(ValueError, match="inconsistent"):
            rsa.RsaPrivateKey.import_secret(blob)
        scheduler.store.put(
            l1_address,
            {"label": l1, "bits": DEVICE_RSA_BITS, "secret": blob.hex()},
        )
        # Torn: the object file cut short mid-write.
        path = scheduler.store._object_path(legacy_address)
        path.write_bytes(path.read_bytes()[:200])
        assert scheduler.store.delete(campaign.cells()[1].key)

        generated = request.getfixturevalue("keygen_log")
        outcome = scheduler.submit(Campaign(profiles=SMALL))
        assert sorted(generated()) == sorted([l1, legacy])
        assert outcome.stats["computed"] == 1
        assert outcome.result.to_json() == sequential_json(SMALL)
        for label, address in keys.items():
            assert _stored_key(scheduler.store.get(address), label) == good[label]

    def test_killed_key_lock_holder_does_not_wedge_the_submit(self, tmp_path):
        root = tmp_path / "fleet"
        campaign = Campaign(profiles=SMALL)
        address = device_key_address(
            campaign.device_key_labels()[0], DEVICE_RSA_BITS
        )
        holder = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys, time\n"
                "from repro.fleet import ResultStore\n"
                "with ResultStore(sys.argv[1]).exclusive(sys.argv[2]):\n"
                "    print('locked', flush=True)\n"
                "    time.sleep(120)\n",
                str(root / "store"),
                address,
            ],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
            stdout=subprocess.PIPE,
        )
        try:
            assert holder.stdout.readline() == b"locked\n"
            outcome: dict = {}

            def submit() -> None:
                try:
                    outcome["ok"] = FleetScheduler(root).submit(campaign)
                except Exception as exc:  # surfaced by the assert below
                    outcome["error"] = exc

            thread = threading.Thread(target=submit)
            thread.start()
            thread.join(timeout=2.0)
            # Blocked on the key lock before its first cell.
            assert thread.is_alive()
            assert not list((root / "campaigns").glob("*/done/*.json"))
        finally:
            holder.kill()
            holder.wait()
            holder.stdout.close()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        assert outcome["ok"].result.to_json() == sequential_json(SMALL)


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestFleetCli:
    def test_submit_status_gc_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "fleet")
        apps = [p.name for p in SMALL]
        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out and "4 computed" in out
        assert "fleet.cells.total" in out

        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        out = capsys.readouterr().out
        assert "0 computed" in out and "4 cache hits" in out

        assert main(["fleet", "status", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "complete" in out and "Netflix" in out

        assert main(["fleet", "gc", "--root", root, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        # Three cells plus the campaign's two device keys.
        assert "evicted 6 object(s)" in out

    def test_resume_of_complete_campaign_reassembles(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "fleet")
        apps = [p.name for p in SMALL]
        assert main(["fleet", "submit", "--root", root, "--apps", *apps]) == 0
        campaign_id = Campaign(profiles=SMALL).campaign_id
        capsys.readouterr()
        assert main(
            ["fleet", "resume", "--root", root, "--campaign", campaign_id]
        ) == 0
        assert "0 computed" in capsys.readouterr().out

    def test_resume_unknown_campaign_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["fleet", "resume", "--root", str(tmp_path), "--campaign", "nope"]
        )
        assert code == 2
        assert "fleet:" in capsys.readouterr().err
