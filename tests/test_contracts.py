"""Golden pins of the study's artifact contracts.

The ``StudyResult.to_json()`` artifact must be byte-identical across
the sequential study and every fleet path: cold at ``jobs=1``, cold at
``jobs=2`` (worker processes that split the device keygen between
them) and a warm resubmit served from the store. The §IV-D sweep must
break exactly six apps, each at 540p.

An intentional artifact change updates the pins here and bumps
``CELL_SCHEMA_VERSION`` in the same change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.fleet import Campaign, FleetScheduler
from repro.fleet.job import CELL_SCHEMA_VERSION
from repro.ott.registry import ALL_PROFILES

STUDY_SHA256 = "b5f3bf2ba4c001590124a3450607036a82a9394b49799adf4f2c460b87947ba5"
ATTACKS_SHA256 = "ddc2459fcf227473a8a61abd80298cd4ae3eaec0a172c8354de1662b52644113"
FLEET_SEED = 3

SIX_BROKEN = {"Netflix", "Hulu", "myCanal", "Showtime", "OCS", "Salto"}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def attacks_sha256(attacks) -> str:
    return sha256(
        json.dumps({name: a.to_dict() for name, a in attacks.items()}, sort_keys=True)
    )


def campaign() -> Campaign:
    return Campaign(profiles=ALL_PROFILES, seed=FLEET_SEED, include_attacks=True)


@pytest.fixture(scope="module")
def cold_jobs1(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet-jobs1")
    return root, FleetScheduler(root).submit(campaign(), jobs=1)


def test_schema_version_matches_the_pins():
    assert CELL_SCHEMA_VERSION == 1


def test_sequential_study_digest(study_json):
    assert sha256(study_json) == STUDY_SHA256


def test_fleet_cold_jobs1_digests(cold_jobs1):
    _, outcome = cold_jobs1
    assert outcome.stats["computed"] == 21
    assert sha256(outcome.result.to_json()) == STUDY_SHA256
    assert attacks_sha256(outcome.attacks) == ATTACKS_SHA256


def test_fleet_cold_jobs2_digests(tmp_path):
    outcome = FleetScheduler(tmp_path).submit(campaign(), jobs=2)
    assert outcome.stats["computed"] == 21
    assert sha256(outcome.result.to_json()) == STUDY_SHA256
    assert attacks_sha256(outcome.attacks) == ATTACKS_SHA256


def test_fleet_warm_digests(cold_jobs1):
    root, _ = cold_jobs1
    outcome = FleetScheduler(root).submit(campaign(), jobs=1)
    assert outcome.stats["computed"] == 0
    assert outcome.stats["cache_hits"] == 21
    assert sha256(outcome.result.to_json()) == STUDY_SHA256
    assert attacks_sha256(outcome.attacks) == ATTACKS_SHA256


def test_attack_sweep_breaks_six_apps_at_540(cold_jobs1):
    _, outcome = cold_jobs1
    broken = {
        name for name, a in outcome.attacks.items() if a.recovery_succeeded
    }
    assert broken == SIX_BROKEN
    assert {outcome.attacks[name].best_video_height for name in broken} == {540}
