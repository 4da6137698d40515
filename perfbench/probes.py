"""Span probes that measure the program's layers from outside.

The benchmark never edits the program. A traced run wraps the public
functions of each layer in spans recorded by :class:`Tracer` and
installs each wrapper under every name callers look the function up by:
``from x import f`` copies ``f`` into the importing module, so
:func:`install` replaces the original object in *every* loaded
``repro.*`` module (``repro.license_server.provisioning.generate_keypair``
as well as ``repro.crypto.rsa.generate_keypair``). Methods are patched
once, on their class.

Spans live in memory as small lists and are written out when the run
ends. A span's *self time* is its duration minus the time its child
spans cover. :func:`op_layer_metrics` checks that an op's trace
accounts for the op: every span opened inside the root span's window
belongs to its tree, and the root covers most of the op's wall time as
measured outside it.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time

# One probe: (metric prefix, module, attribute path, kind).
#   span     - one span per outermost call
#   keygen   - span only for calls that really generate (rng given)
#   counter  - count calls, no span (hot, cheap functions)
# Sizes and outcomes recorded per span are chosen in ``_annotate``.
PROBES: tuple[tuple[str, str, str, str], ...] = (
    ("crypto.rsa_keygen", "repro.crypto.rsa", "generate_keypair", "keygen"),
    ("crypto.rsa_private", "repro.crypto.rsa", "RsaPrivateKey.raw_decrypt", "span"),
    ("crypto.ctr", "repro.crypto.modes", "ctr_transform", "span"),
    # CENC reaches CTR through the keystream, not ctr_transform.
    ("crypto.ctr", "repro.crypto.modes", "ctr_keystream", "span"),
    ("crypto.cmac", "repro.crypto.cmac", "aes_cmac", "counter"),
    ("dash.package", "repro.dash.packager", "Packager.package", "span"),
    ("bmff.parse", "repro.bmff.boxes", "parse_boxes", "span"),
    ("bmff.decrypt", "repro.bmff.cenc", "decrypt_sample", "span"),
    ("bmff.decrypt", "repro.bmff.cenc", "decrypt_sample_cbcs", "span"),
    ("bmff.encrypt", "repro.bmff.cenc", "encrypt_sample", "span"),
    ("bmff.encrypt", "repro.bmff.cenc", "encrypt_sample_cbcs", "span"),
    ("net.request", "repro.net.network", "Network.deliver", "span"),
    ("license_server", "repro.net.server", "VirtualServer.handle", "span"),
    ("widevine.key_request", "repro.widevine.cdm", "WidevineCdm.get_key_request", "span"),
    ("widevine.load_keys", "repro.widevine.cdm", "WidevineCdm.provide_key_response", "span"),
    ("widevine.provision", "repro.widevine.cdm", "WidevineCdm.get_provision_request", "span"),
    ("widevine.provision", "repro.widevine.cdm", "WidevineCdm.provide_provision_response", "span"),
    ("android.boot", "repro.android.device", "pixel_6", "span"),
    ("android.boot", "repro.android.device", "nexus_5", "span"),
    ("ott.play", "repro.ott.app", "OttApp.play", "span"),
    ("ott.backend", "repro.ott.backend", "OttBackend.__init__", "span"),
    ("instrumentation.keybox_scan", "repro.instrumentation.memscan", "scan_for_keybox", "span"),
    ("analysis.analyze", "repro.analysis.engine", "analyze", "span"),
    ("analysis.crosscheck", "repro.analysis.crosscheck", "cross_check", "span"),
    ("core.world", "repro.core.study", "WideLeakStudy.__init__", "span"),
    ("core.study_app", "repro.core.study", "WideLeakStudy.study_app", "span"),
    ("core.audit", "repro.core.content_audit", "ContentAuditor.audit", "span"),
    ("core.key_usage", "repro.core.key_usage", "KeyUsageAnalyzer.analyze", "span"),
    ("core.legacy_probe", "repro.core.legacy_probe", "LegacyDeviceProbe.probe", "span"),
    ("core.attack", "repro.core.keyladder_attack", "KeyLadderAttack.run", "span"),
    ("core.recover", "repro.core.media_recovery", "MediaRecoveryPipeline.recover", "span"),
    ("fleet.submit", "repro.fleet.scheduler", "FleetScheduler.submit", "span"),
    ("fleet.store.get", "repro.fleet.store", "ResultStore.get", "span"),
    ("fleet.store.put", "repro.fleet.store", "ResultStore.put", "span"),
)

# Memo caches read through their public ``cache_info()``:
# metric name -> (module, attribute).
LRU_CACHES: dict[str, tuple[str, str]] = {
    "crypto.cache.cipher": ("repro.crypto.aes", "cipher_for"),
    "crypto.cache.keystream": ("repro.crypto.modes", "_keystream_blocks"),
    "crypto.cache.cmac": ("repro.crypto.cmac", "_subkeys_for"),
    "crypto.cache.kdf": ("repro.crypto.kdf", "derive_key"),
}

LAYERS = (
    "crypto", "dash", "bmff", "net", "license_server", "widevine",
    "android", "ott", "instrumentation", "analysis", "core", "fleet",
)

ROOT = "op"

# Span record: [name, start_ns, end_ns, parent index or -1, bytes, flag],
# where ``bytes`` is data moved and ``flag`` marks an outcome that
# ``FLAGS`` names (a denial, a failure, a miss).


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        # Call counts without spans, per op: root span index -> name -> n.
        self.counters: dict[str, dict[str, int]] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0, 0]
        )
        stack.append(index)
        return index

    def close(self, index: int, size: int = 0, flag: int = 0) -> None:
        record = self.spans[index]
        record[2] = time.perf_counter_ns()
        record[4] = size
        record[5] = flag
        self._stack().pop()

    def active(self, name: str) -> bool:
        """Whether a span called *name* is already open on this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def count(self, name: str) -> None:
        stack = self._stack()
        if stack:
            per_op = self.counters.setdefault(str(stack[0]), {})
            per_op[name] = per_op.get(name, 0) + 1

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def _annotate(name: str, args: tuple, result) -> tuple[int, int]:
    """(bytes, flag) for one finished call; see ``FLAGS`` for the flag."""
    if name == "crypto.ctr":  # ctr_transform(data) or ctr_keystream(length)
        size = args[2]
        return size if isinstance(size, int) else len(size), 0
    if name == "bmff.decrypt":
        return len(args[0].data), 0
    if name == "bmff.encrypt":
        return len(args[0]), 0
    if name == "net.request":
        return len(args[1].body) + len(result.body), 0
    if name.startswith("license_server.") or name == "ott.play":
        return 0, 0 if result.ok else 1
    if name == "fleet.store.get":
        return 0, 1 if result is None else 0
    return 0, 0


# What a span's flag counts, by span name (default: nothing).
FLAGS = {
    "license_server.provision": "denied",
    "license_server.license": "denied",
    "ott.play": "failed",
    "fleet.store.get": "misses",
}

_RAISED = object()


def _server_kind(server) -> str | None:
    from repro.license_server.provisioning import ProvisioningServer
    from repro.license_server.server import LicenseServer

    if isinstance(server, ProvisioningServer):
        return "license_server.provision"
    if isinstance(server, LicenseServer):
        return "license_server.license"
    return None


def _make_wrapper(tracer: Tracer, prefix: str, kind: str, original):
    if kind == "counter":

        @functools.wraps(original)
        def counting(*args, **kwargs):
            tracer.count(prefix)
            return original(*args, **kwargs)

        return counting

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        name = prefix
        if kind == "keygen" and kwargs.get("rng") is None:
            return original(*args, **kwargs)  # cache lookup, not generation
        if prefix == "license_server":
            name = _server_kind(args[0])
            if name is None:  # CDN and app origins are timed by net.request
                return original(*args, **kwargs)
        if tracer.active(name):  # recursion: the outermost call owns the span
            return original(*args, **kwargs)
        # The store reports its size; read it outside the span.
        stored = args[0].stats()["bytes"] if name == "fleet.store.put" else 0
        index = tracer.open(name)
        result = _RAISED
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            if result is _RAISED:
                tracer.close(index)
            else:
                tracer.close(index, *_annotate(name, args, result))
                if name == "fleet.store.put":
                    tracer.spans[index][4] = args[0].stats()["bytes"] - stored

    return wrapper


def import_all() -> None:
    """Import every ``repro`` module, so no later lazy import can bind
    an unwrapped function."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every probe in this process.

    Returns the ``(owner, attribute, original)`` triples that
    :func:`uninstall` puts back.
    """
    import_all()
    patched: list[tuple[object, str, object]] = []
    loaded = [
        module
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    for prefix, module, path, kind in PROBES:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = _make_wrapper(tracer, prefix, kind, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            patched.append((owner, attr, original))
            continue
        for loaded_module in loaded:
            for name, value in list(vars(loaded_module).items()):
                if value is original:
                    setattr(loaded_module, name, wrapper)
                    patched.append((loaded_module, name, original))
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)


def cache_snapshot() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every memo cache the program exposes."""
    snapshot = {}
    for metric, (module, attr) in LRU_CACHES.items():
        info = getattr(importlib.import_module(module), attr).cache_info()
        snapshot[metric] = (info.hits, info.misses)
    from repro.dash.packager import segment_cache_stats

    stats = segment_cache_stats()
    snapshot["dash.segment_cache"] = (stats["hits"], stats["misses"])
    return snapshot


def cache_ratios(
    before: dict[str, tuple[int, int]], after: dict[str, tuple[int, int]]
) -> dict[str, float]:
    """Hit ratio of each cache over an interval (0 when unused)."""
    ratios = {}
    for metric, (hits, misses) in after.items():
        d_hits = hits - before[metric][0]
        d_lookups = d_hits + misses - before[metric][1]
        ratios[f"{metric}.hit_ratio"] = d_hits / d_lookups if d_lookups else 0.0
    return ratios


class UnaccountedTrace(ValueError):
    """An op's trace does not account for the op's wall time."""


def op_layer_metrics(
    trace: dict, root: int, wall_s: float, floor_pct: float
) -> dict[str, float]:
    """Per-layer metrics of the op whose root span is ``spans[root]``
    in an exported *trace*.

    *wall_s* is the op's wall time measured outside the trace. Returns
    count / busy seconds / bytes / flags per probe name, call counts of
    counter probes, self seconds per layer, ``obs.unattributed_s`` (the
    root's own self time) and ``obs.accounted_pct`` (the root's
    duration as a share of *wall_s*). Raises :class:`UnaccountedTrace`
    if a span opened inside the root's window is not in its tree (a
    span on another thread, whose time no layer would show), or if the
    root covers less than *floor_pct* of *wall_s*.
    """
    spans = trace["spans"]
    members = {root}
    root_end = spans[root][2]
    orphans = 0
    for index in range(root + 1, len(spans)):
        if spans[index][1] >= root_end:
            break
        if spans[index][3] in members:
            members.add(index)
        else:
            orphans += 1
    total = spans[root][2] - spans[root][1]
    accounted_pct = 100.0 * total / 1e9 / wall_s
    if orphans:
        raise UnaccountedTrace(f"{orphans} spans inside the op are outside its root's tree")
    if accounted_pct < floor_pct:
        raise UnaccountedTrace(
            f"root span covers {accounted_pct:.1f}% of the op's {wall_s:.3f} s "
            f"wall time, below {floor_pct:g}%"
        )
    child_ns: dict[int, int] = {}
    for index in members:
        parent = spans[index][3]
        if index != root:
            child_ns[parent] = child_ns.get(parent, 0) + spans[index][2] - spans[index][1]
    metrics: dict[str, float] = {}
    self_ns: dict[str, int] = {}
    for index in members:
        name, start, end, _, size, flag = spans[index]
        duration = end - start
        own = duration - child_ns.get(index, 0)
        layer = ROOT if index == root else name.split(".", 1)[0]
        self_ns[layer] = self_ns.get(layer, 0) + own
        if index == root:
            continue
        metrics[f"{name}.count"] = metrics.get(f"{name}.count", 0) + 1
        metrics[f"{name}.s"] = metrics.get(f"{name}.s", 0.0) + duration / 1e9
        metrics[f"{name}.bytes"] = metrics.get(f"{name}.bytes", 0) + size
        if name in FLAGS:
            key = f"{name}.{FLAGS[name]}"
            metrics[key] = metrics.get(key, 0) + flag
    for name, calls in trace["counters"].get(str(root), {}).items():
        metrics[f"{name}.count"] = calls
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_ns.get(layer, 0) / 1e9
    metrics["obs.unattributed_s"] = self_ns.get(ROOT, 0) / 1e9
    metrics["obs.accounted_pct"] = accounted_pct
    return metrics
