"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-table1 --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client; see ``BENCHMARK.json`` for why
each was chosen and ``perfbench/METRICS.md`` for every metric):

- ``cold-table1``: each op is a fresh interpreter running
  ``python -m repro table1``, so every cache starts empty.
- ``warm-session``: one long-lived process; ops alternate a full
  ten-app study and a §IV-D attack sweep, each on a fresh
  ``WideLeakStudy``, with every cache already filled.
- ``fleet-campaign``: each op is a fresh interpreter with an empty
  result store, running a cold ``FleetScheduler.submit`` (21 cells,
  ``jobs=2``), warm resubmits, and one edited profile resubmitted at
  ``jobs=1``.

Every op's output is checked against a reference built once, untimed,
at start; a wrong answer or an op that overruns its wall-clock timeout
counts as a failed op, never as a timing. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops
and prints the per-layer metrics. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import probes  # noqa: E402

CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / ".perfbench_out"

# A run must end within 180 s; ops are cut short well before that.
HARD_LIMIT_S = 165.0
OP_TIMEOUT_S = {"cold-table1": 60.0, "warm-session": 30.0, "fleet-campaign": 90.0}
SETUP_SAMPLES = 3
# A traced op's root span must cover this share of the op's wall time
# measured outside it. In-process ops pay only the clock reads; child
# ops also pay interpreter start-up, importing the CLI and writing
# their spans out.
ACCOUNTED_FLOOR_PCT = {"in-process": 95.0, "child": 75.0}
# Percentiles tried for the tail, highest first; the tail is the
# highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
EXPECTED_BROKEN = 6
EXPECTED_BEST_HEIGHT = 540
FLEET_CELLS = 21


class WrongOutput(Exception):
    """An op finished but its output differs from the reference."""


class OpTimeout(Exception):
    """An op overran its wall-clock timeout."""


# ---------------------------------------------------------------------------
# Closed-loop bookkeeping
# ---------------------------------------------------------------------------


class Run:
    """One benchmark run: the loop deadline and the op tally."""

    def __init__(self, workload: str, seconds: int):
        self.started = time.perf_counter()
        self.workload = workload
        self.seconds = seconds
        self.loop_start = self.started
        self.attempted = 0
        self.failed = 0
        # Exported span traces of the traced ops, written out at the end.
        self.traces: list[dict] = []

    def start_loop(self) -> None:
        self.loop_start = time.perf_counter()

    def more(self) -> bool:
        now = time.perf_counter()
        return (
            now - self.loop_start < self.seconds
            and now - self.started < HARD_LIMIT_S - OP_TIMEOUT_S[self.workload] / 3
        )

    def timeout(self) -> float:
        left = HARD_LIMIT_S - (time.perf_counter() - self.started)
        return max(1.0, min(OP_TIMEOUT_S[self.workload], left))

    def attempt(self, label: str, op) -> None:
        """Run one op; count it as failed if it raises."""
        self.attempted += 1
        try:
            op()
        except Exception:  # a failing op is counted, never fatal
            self.failed += 1
            print(f"op {label} failed:\n{traceback.format_exc()}", file=sys.stderr)


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread after *seconds* of wall time."""

    def fire(_signum, _frame):
        raise OpTimeout(f"op exceeded {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _reap_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class Child:
    """A finished child interpreter: exit code, output, and the resource
    use ``wait4`` reports for it and every descendant it waited for
    (fleet workers included)."""

    def __init__(self, returncode: int, stdout: str, stderr: str, usage) -> None:
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def run_child(argv: list[str], timeout: float) -> Child:
    """Run a child interpreter in its own process group; on timeout or
    error kill the whole group (fleet workers included)."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=CHECKOUT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        try:
            with deadline(timeout):
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _reap_group(proc.pid)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_group(proc.pid)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            usage,
        )


def run_child_json(argv: list[str], timeout: float, out: Path) -> tuple[dict, Child]:
    out.unlink(missing_ok=True)
    proc = run_child([*argv, "--out", str(out)], timeout)
    if proc.returncode != 0:
        raise WrongOutput(f"child {argv[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(out.read_text()), proc
    finally:
        out.unlink(missing_ok=True)


def timed_child(argv: list[str], timeout: float) -> float:
    begin = time.perf_counter()
    proc = run_child(argv, timeout)
    if proc.returncode != 0:
        raise WrongOutput(f"set-up child {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return time.perf_counter() - begin


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    of TAIL_LADDER with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = int(len(ordered) * pct / 100.0)
        if len(ordered) - rank - 1 >= TAIL_BEYOND:
            return pct, ordered[rank], len(ordered) - rank - 1
    return 50.0, median(ordered), len(ordered) // 2


def own_peak_rss_mb() -> float:
    """Peak RSS of this process alone (no children)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_layer_metrics(out: dict, wall_s: float) -> dict[str, float]:
    """Layer metrics of a traced child op, whose one root span must
    account for the op's wall time less the child's probe install."""
    (root,) = [i for i, span in enumerate(out["trace"]["spans"]) if span[0] == probes.ROOT]
    metrics = probes.op_layer_metrics(
        out["trace"], root, wall_s - out["install_s"], ACCOUNTED_FLOOR_PCT["child"]
    )
    metrics.update(out["caches"])
    return metrics


# ---------------------------------------------------------------------------
# References (built once per run, untimed)
# ---------------------------------------------------------------------------


def paper_table_text() -> str:
    """Table I as the paper prints it, rendered like ``repro table1``."""
    from repro.core.report import EXPECTED_PAPER_TABLE, TableOne

    return TableOne(rows=list(EXPECTED_PAPER_TABLE.values())).render()


def build_study_reference() -> dict:
    """A full study and attack sweep in this process (fills every
    cache): the artifact every later study must reproduce byte for
    byte, and the attack outcomes every later sweep must match."""
    from repro.core.study import AttackCellArtifact, WideLeakStudy

    study = WideLeakStudy.with_default_apps()
    result = study.run()
    artifact = result.to_json()
    attacks = study.run_all_attacks()
    artifacts = {name: AttackCellArtifact.from_result(a) for name, a in attacks.items()}
    return {
        "study_json": artifact,
        "matches_paper": result.table.matches_paper,
        "broken": broken_apps(attacks),
        "study_digest": child.digest(artifact),
        "attacks_digest": child.attacks_digest(artifacts),
    }


def broken_apps(attacks: dict) -> dict[str, int]:
    """{app: best height} for every app whose media was recovered."""
    return {
        name: outcome.recovered.best_video_height
        for name, outcome in attacks.items()
        if outcome.recovered is not None and outcome.recovered.succeeded
    }


def check_paper_facts(reference: dict) -> None:
    if not reference["matches_paper"]:
        raise WrongOutput("reference Table I differs from the paper")
    heights = set(reference["broken"].values())
    if len(reference["broken"]) != EXPECTED_BROKEN or heights != {EXPECTED_BEST_HEIGHT}:
        raise WrongOutput(f"reference sweep broke {reference['broken']}")


# ---------------------------------------------------------------------------
# cold-table1
# ---------------------------------------------------------------------------


def check_table1(exit_code: int, stdout: str, expected: str) -> None:
    if exit_code != 0 or not stdout.startswith(expected + "\n"):
        raise WrongOutput(f"repro table1 exit {exit_code}, output:\n{stdout[:1500]}")


def cold_table1(run: Run, seed: int, trace: bool) -> tuple[dict, list[str]]:
    expected = paper_table_text()
    setups = [
        timed_child([str(HERE / "child.py"), "import"], run.timeout())
        for _ in range(SETUP_SAMPLES)
    ]
    rng = random.Random(seed)
    walls: list[float] = []
    cpus: list[float] = []
    peaks: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def untraced() -> None:
        begin = time.perf_counter()
        proc = run_child(["-m", "repro", "table1"], run.timeout())
        wall = time.perf_counter() - begin
        check_table1(proc.returncode, proc.stdout, expected)
        walls.append(wall)
        cpus.append(proc.cpu_s)
        peaks.append(proc.peak_rss_mb)

    def traced() -> None:
        begin = time.perf_counter()
        out, _ = run_child_json(
            [str(HERE / "child.py"), "table1"],
            run.timeout(),
            OUT / f"table1-{os.getpid()}.json",
        )
        wall = time.perf_counter() - begin
        check_table1(out["exit"], out["stdout"], expected)
        run.traces.append(out["trace"])
        layers.append(child_layer_metrics(out, wall))
        traced_walls.append(wall - out["install_s"])

    run.start_loop()
    while run.more():
        pair = [untraced, traced] if trace else [untraced]
        rng.shuffle(pair)  # the seed only orders traced vs untraced ops
        for op in pair:
            run.attempt(op.__name__, op)
    e2e = {
        "table1_s": median(walls),
        "op_s": median(walls),
        "op_cpu_s": median(cpus),
        "setup_s": median(setups),
        "peak_rss_mb": median(peaks),
    }
    notes = [
        f"table1 ops: {len(walls)} (fresh interpreter each)",
        rss_note(median(peaks), "each op's interpreter"),
    ]
    return finish(e2e, layers, walls, traced_walls, {}), notes


# ---------------------------------------------------------------------------
# warm-session
# ---------------------------------------------------------------------------


def warm_session(run: Run, seed: int, trace: bool) -> tuple[dict, list[str]]:
    begin = time.perf_counter()
    with deadline(run.timeout()):
        reference = build_study_reference()
    setups = [time.perf_counter() - begin]
    setups += [
        timed_child([str(HERE / "child.py"), "session-setup"], run.timeout())
        for _ in range(SETUP_SAMPLES - 1)
    ]
    check_paper_facts(reference)
    from repro.core.study import WideLeakStudy
    from repro.ott.registry import ALL_PROFILES

    # Per-app Q1–Q4 latency of untraced ops, timed around
    # WideLeakStudy.study_app (one clock pair per app).
    op_app_ms: list[float] = []
    original_study_app = WideLeakStudy.study_app

    def timed_study_app(self, *args, **kwargs):
        start = time.perf_counter()
        result = original_study_app(self, *args, **kwargs)
        op_app_ms.append((time.perf_counter() - start) * 1000.0)
        return result

    def study() -> None:
        result = WideLeakStudy.with_default_apps().run()
        if not result.table.matches_paper or result.to_json() != reference["study_json"]:
            raise WrongOutput("study artifact differs from the reference")

    def attack_sweep() -> None:
        broken = broken_apps(WideLeakStudy.with_default_apps().run_all_attacks())
        if broken != reference["broken"]:
            raise WrongOutput(f"attack sweep broke {broken}")

    tracer = probes.Tracer()
    walls: dict[str, list[float]] = {"study": [], "attack": [], "op": []}
    cpus: list[float] = []
    app_ms: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def pair_op(order: list[str], traced_op: bool):
        """One op: a ten-app study and an attack sweep, in *order*."""

        def op() -> None:
            op_app_ms.clear()
            caches = probes.cache_snapshot()
            patched = probes.install(tracer) if traced_op else []
            if not traced_op:
                WideLeakStudy.study_app = timed_study_app
            cpu = time.process_time()
            start = time.perf_counter()
            split = {}
            try:
                with deadline(run.timeout()):
                    index = tracer.open(probes.ROOT) if traced_op else -1
                    try:
                        for kind in order:
                            begin = time.perf_counter()
                            (study if kind == "study" else attack_sweep)()
                            split[kind] = time.perf_counter() - begin
                    finally:
                        if traced_op:
                            tracer.close(index)
            finally:
                WideLeakStudy.study_app = original_study_app
                probes.uninstall(patched)
            wall = time.perf_counter() - start
            if traced_op:
                op_layers = probes.op_layer_metrics(
                    tracer.export(), index, wall, ACCOUNTED_FLOOR_PCT["in-process"]
                )
                op_layers.update(probes.cache_ratios(caches, probes.cache_snapshot()))
                layers.append(op_layers)
                traced_walls.append(wall)
                return
            walls["op"].append(wall)
            walls["study"].append(split["study"])
            walls["attack"].append(split["attack"])
            cpus.append(time.process_time() - cpu)
            app_ms.extend(op_app_ms)

        return op

    rng = random.Random(seed)
    run.start_loop()
    while run.more():
        # The seed picks the interleaving: which half of a pair runs
        # first, and whether the traced or the untraced pair leads.
        order = ["study", "attack"]
        rng.shuffle(order)
        plan = [False, True] if trace else [False]
        rng.shuffle(plan)
        for traced_op in plan:
            run.attempt("pair" + ("-traced" if traced_op else ""), pair_op(order, traced_op))
    e2e = {
        "table1_s": median(walls["study"]),
        "op_s": median(walls["op"]),
        "op_cpu_s": median(cpus),
        "setup_s": median(setups),
        # The ops run in this process, after its set-up and reference.
        "peak_rss_mb": own_peak_rss_mb(),
    }
    n_apps = len(ALL_PROFILES)
    pct, tail_ms, beyond = tail(app_ms)
    workload = {
        "audits_per_s": per_second(n_apps, walls["study"]),
        "audit_ms_p50": median(app_ms),
        "audit_ms_tail": tail_ms,
        "attacks_per_s": per_second(n_apps, walls["attack"]),
    }
    notes = [
        f"audit_ms_tail is p{pct:g} of {len(app_ms)} per-app study_app "
        f"samples ({beyond} beyond it)",
        f"peak RSS: {e2e['peak_rss_mb']:.1f} MB in this process (set-up, reference "
        f"and ops); set-up samples in fresh interpreters are left out",
    ]
    if tracer.spans:
        run.traces.append(tracer.export())
    return finish(e2e, layers, walls["op"], traced_walls, workload), notes


def rss_note(ops_mb: float, where: str) -> str:
    return (
        f"peak RSS: {ops_mb:.1f} MB median per op ({where}); "
        f"{own_peak_rss_mb():.1f} MB in this process (reference), left out"
    )


def per_second(items_per_op: int, walls: list[float]) -> float:
    return items_per_op * len(walls) / sum(walls) if walls else 0.0


# ---------------------------------------------------------------------------
# fleet-campaign
# ---------------------------------------------------------------------------


def check_fleet(out: dict, reference: dict) -> None:
    expected_computed = {"cold": FLEET_CELLS, "warm": 0, "invalidated": 3}
    for step, runs in out["steps"].items():
        for record in runs:
            if record["computed"] != expected_computed[step]:
                raise WrongOutput(
                    f"fleet {step} computed {record['computed']} cells, "
                    f"expected {expected_computed[step]}"
                )
            if record["result"] != reference["study_digest"]:
                raise WrongOutput(f"fleet {step} artifact differs from the reference")
            if record["attacks"] != reference["attacks_digest"]:
                raise WrongOutput(f"fleet {step} attack artifacts differ")


def fleet_campaign(run: Run, seed: int, trace: bool) -> tuple[dict, list[str]]:
    with deadline(run.timeout()):
        reference = build_study_reference()
    check_paper_facts(reference)
    from repro.ott.registry import ALL_PROFILES

    rng = random.Random(seed)
    n_apps = len(ALL_PROFILES)
    setups: list[float] = []
    walls: list[float] = []
    cpus: list[float] = []
    peaks: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    steps: dict[str, list[float]] = {"cold": [], "warm": [], "invalidated": []}
    op_ids = itertools.count(1)

    def fleet_op(traced_op: bool):
        # Generated inputs: the campaign seed, and which profile gets
        # which benign edit (installs_millions is never read by the study).
        params = [
            "--seed", str(rng.randrange(1 << 31)),
            "--edit-app", str(rng.randrange(n_apps)),
            "--edit-delta", str(rng.randrange(1, 1000)),
        ]

        def op() -> None:
            root = OUT / f"fleet-{os.getpid()}-{next(op_ids)}"
            begin = time.perf_counter()
            try:
                out, proc = run_child_json(
                    [str(HERE / "child.py"), "fleet", "--root", str(root), *params]
                    + (["--trace"] if traced_op else []),
                    run.timeout(),
                    OUT / f"fleet-{os.getpid()}.json",
                )
            finally:
                shutil.rmtree(root, ignore_errors=True)
            wall = time.perf_counter() - begin
            check_fleet(out, reference)
            cold = out["steps"]["cold"][0]
            edited = out["steps"]["invalidated"][0]
            if traced_op:
                run.traces.append(out["trace"])
                op_layers = child_layer_metrics(out, wall)
                telemetry = out["telemetry"]
                for name in ("fleet.reconcile.s", "fleet.execute.s", "fleet.assemble.s"):
                    op_layers[name] = telemetry.get(name, 0.0)
                op_layers["fleet.cells.computed"] = telemetry.get("fleet.computed", 0)
                op_layers["fleet.cells.cache_hits"] = telemetry.get("fleet.cache_hits", 0)
                op_layers["fleet.retries"] = telemetry.get("fleet.retries", 0)
                op_layers["fleet.steals"] = telemetry.get("fleet.steals", 0)
                op_layers["fleet.worker_cpu_s"] = cold["worker_cpu_s"]
                op_layers["fleet.worker_util"] = (
                    cold["worker_cpu_s"] / (cold["jobs"] * cold["execute_s"])
                    if cold["execute_s"] else 0.0
                )
                layers.append(op_layers)
                traced_walls.append(wall - out["install_s"] - edited["s"])
                return
            # The edited profile's cost depends on which app the seed
            # picks (an app that revokes the legacy device needs one
            # device key, the others two), so op_s and op_cpu_s leave
            # that step out; it is reported as fleet_invalidated_s.
            walls.append(wall - edited["s"])
            cpus.append(proc.cpu_s - edited["cpu_s"])
            peaks.append(proc.peak_rss_mb)
            setups.append(out["setup_s"])
            steps["cold"].append(cold["s"])
            steps["warm"].append(median([r["s"] for r in out["steps"]["warm"]]))
            steps["invalidated"].append(edited["s"])

        return op

    run.start_loop()
    while run.more():
        plan = [False, True] if trace else [False]
        rng.shuffle(plan)
        for traced_op in plan:
            run.attempt("fleet" + ("-traced" if traced_op else ""), fleet_op(traced_op))
    e2e = {
        "table1_s": median(steps["cold"]),
        "op_s": median(walls),
        "op_cpu_s": median(cpus),
        "setup_s": median(setups),
        "peak_rss_mb": median(peaks),
    }
    workload = {
        "fleet_cold_s": median(steps["cold"]),
        "fleet_warm_s": median(steps["warm"]),
        "fleet_invalidated_s": median(steps["invalidated"]),
    }
    notes = [
        f"fleet ops: {len(walls)}; warm step = median of {child.WARM_RESUBMITS} resubmits per op",
        rss_note(median(peaks), "each op's interpreter and its workers"),
    ]
    return finish(e2e, layers, walls, traced_walls, workload), notes


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

# The workload's own headline figures: printed as text by every run and
# reported as per-layer metrics (0 on workloads they do not apply to).
WORKLOAD_METRICS = (
    "audits_per_s", "audit_ms_p50", "audit_ms_tail", "attacks_per_s",
    "fleet_cold_s", "fleet_warm_s", "fleet_invalidated_s",
)


def finish(
    e2e: dict[str, float],
    layers: list[dict[str, float]],
    untraced_walls: list[float],
    traced_walls: list[float],
    workload: dict[str, float],
) -> dict:
    """Collect every metric this run measured into one flat dict."""
    merged: dict[str, float] = dict(e2e)
    for name in WORKLOAD_METRICS:
        merged[name] = workload.get(name, 0.0)
    names = sorted({key for op in layers for key in op})
    for name in names:
        merged[name] = median([op.get(name, 0.0) for op in layers])
    gets = merged.get("fleet.store.get.count", 0)
    if gets:
        merged["fleet.store.get.hit_ratio"] = 1.0 - merged.get("fleet.store.get.misses", 0) / gets
    if untraced_walls and traced_walls:
        merged["obs.trace_overhead_pct"] = 100.0 * (median(traced_walls) / median(untraced_walls) - 1.0)
    return merged


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def result_line(spec: dict, run: Run, merged: dict[str, float], trace: bool) -> dict:
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": float(merged.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in wanted
    }
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


WORKLOADS = {
    "cold-table1": cold_table1,
    "warm-session": warm_session,
    "fleet-campaign": fleet_campaign,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="WideLeak reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seconds)
    merged, notes = WORKLOADS[args.workload](run, args.seed, bool(args.trace))
    merged["ops_failed_ratio"] = run.failed / run.attempted
    if run.traces:
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "traces": run.traces})
        )
    spec = load_spec()
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    for line in notes:
        print(line)
    for name in WORKLOAD_METRICS:
        if merged[name]:
            print(f"{name} {merged[name]:.6g} {units[name]}")
    print(json.dumps(result_line(spec, run, merged, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
