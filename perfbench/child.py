"""Work that must run in a fresh interpreter, driven by ``run.py``.

Usage (from the root of a checkout, with ``PYTHONPATH=src``)::

    python3 perfbench/child.py import
    python3 perfbench/child.py session-setup
    python3 perfbench/child.py table1 --out FILE
    python3 perfbench/child.py fleet --out FILE --root DIR --seed N \
        --edit-app I --edit-delta D [--trace]

``import`` and ``session-setup`` are set-up samples timed by the
parent. ``table1`` is a traced ``repro table1`` (the untraced op is
``python -m repro table1`` itself). ``fleet`` is one fleet-campaign
op. Results go to ``--out`` as JSON; the parent checks them against
its reference.

A traced op reports ``install_s``, the time :func:`probes.install`
took (it imports every ``repro`` module), so the parent can leave it
out of the op's wall time: an untraced op never pays it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402

# Warm resubmits per fleet op. Each takes 10-40 ms on a 2-vCPU VM, so
# the warm step is a third or more of op_s: a slower store, reconcile
# or assemble shows in the op's gated wall time, not only in
# fleet_warm_s. The warm path is mostly file renames and reads, whose
# cost on a shared disk varies by up to 40% from op to op; more
# resubmits would let that noise swamp op_s.
WARM_RESUBMITS = 150


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def attacks_digest(artifacts: dict) -> str:
    """Digest of ``{app: AttackCellArtifact}`` in its JSON form."""
    return digest(
        json.dumps({name: a.to_dict() for name, a in artifacts.items()}, sort_keys=True)
    )


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def install_tracer() -> tuple[probes.Tracer, float]:
    """Install the probes; return the tracer and the seconds it took."""
    begin = time.perf_counter()
    tracer = probes.Tracer()
    probes.install(tracer)
    return tracer, time.perf_counter() - begin


@contextlib.contextmanager
def root_span(tracer: probes.Tracer | None):
    """The op's root span when tracing, else nothing."""
    if tracer is None:
        yield
        return
    index = tracer.open(probes.ROOT)
    try:
        yield
    finally:
        tracer.close(index)


def cmd_import(_args) -> dict:
    import repro.cli  # noqa: F401

    return {}


def cmd_session_setup(_args) -> dict:
    from repro.core.study import WideLeakStudy

    study = WideLeakStudy.with_default_apps()
    study.run()
    study.run_all_attacks()
    return {}


def cmd_table1(_args) -> dict:
    # ``python -m repro table1`` imports this too; install_s is only
    # the probes' own work on top of it.
    from repro import cli

    tracer, install_s = install_tracer()
    caches = probes.cache_snapshot()
    stdout = io.StringIO()
    with root_span(tracer), contextlib.redirect_stdout(stdout):
        code = cli.main(["table1"])
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "caches": probes.cache_ratios(caches, probes.cache_snapshot()),
        "install_s": install_s,
        "trace": tracer.export(),
    }


def cmd_fleet(args) -> dict:
    started = time.perf_counter()
    from repro.fleet import Campaign, FleetScheduler
    from repro.obs.bus import ObservabilityBus
    from repro.ott.registry import ALL_PROFILES

    tracer, install_s = install_tracer() if args.trace else (None, 0.0)
    out: dict = {"steps": {}, "install_s": install_s}
    with root_span(tracer):
        scheduler = FleetScheduler(args.root)
        campaign = Campaign(
            profiles=ALL_PROFILES, seed=args.seed, include_attacks=True
        )
        campaign.cells()
        edited = list(ALL_PROFILES)
        target = edited[args.edit_app]
        edited[args.edit_app] = dataclasses.replace(
            target, installs_millions=target.installs_millions + args.edit_delta
        )
        edited_campaign = Campaign(
            profiles=tuple(edited), seed=args.seed, include_attacks=True
        )
        edited_campaign.cells()
        out["setup_s"] = time.perf_counter() - started - install_s
        caches = probes.cache_snapshot()
        buses: list[ObservabilityBus] = []

        def step(name: str, run_campaign: Campaign, jobs: int) -> None:
            bus = ObservabilityBus()
            buses.append(bus)
            cpu = children_cpu_s()
            own_cpu = time.process_time()
            begin = time.perf_counter()
            outcome = scheduler.submit(run_campaign, jobs=jobs, obs=bus)
            wall = time.perf_counter() - begin
            own_cpu = time.process_time() - own_cpu
            execute = sum(
                s.duration_ns for s in bus.spans if s.name == "fleet.execute"
            ) / 1e9
            out["steps"].setdefault(name, []).append(
                {
                    "s": wall,
                    "computed": outcome.stats["computed"],
                    "result": digest(outcome.result.to_json()),
                    "attacks": attacks_digest(outcome.attacks),
                    "worker_cpu_s": children_cpu_s() - cpu,
                    "cpu_s": own_cpu + children_cpu_s() - cpu,
                    "execute_s": execute,
                    "jobs": jobs,
                }
            )

        step("cold", campaign, 2)
        for _ in range(WARM_RESUBMITS):
            step("warm", campaign, 2)
        # jobs=1: submit(jobs>1) of an edited registry-named profile
        # never returns (see perfbench/METRICS.md, known defect).
        step("invalidated", edited_campaign, 1)
    out["caches"] = probes.cache_ratios(caches, probes.cache_snapshot())
    telemetry: dict[str, float] = {}
    for bus in buses:
        for span in bus.spans:
            if span.name in ("fleet.reconcile", "fleet.execute", "fleet.assemble"):
                key = f"{span.name}.s"
                telemetry[key] = telemetry.get(key, 0.0) + span.duration_ns / 1e9
        for name, value in bus.metrics.counters().items():
            telemetry[name] = telemetry.get(name, 0) + value
    out["telemetry"] = telemetry
    if tracer is not None:
        out["trace"] = tracer.export()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("import").set_defaults(run=cmd_import)
    commands.add_parser("session-setup").set_defaults(run=cmd_session_setup)
    table1 = commands.add_parser("table1")
    table1.set_defaults(run=cmd_table1)
    fleet = commands.add_parser("fleet")
    fleet.set_defaults(run=cmd_fleet)
    for name in ("--root", "--seed", "--edit-app", "--edit-delta"):
        fleet.add_argument(name, required=True, type=str if name == "--root" else int)
    fleet.add_argument("--trace", action="store_true")
    for command in (table1, fleet):
        command.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = args.run(args)
    if "out" in args:
        Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
