"""Per-layer timing of k3cert from outside the program.

While a Tracer is installed, the public functions below are replaced, in
every k3cert module that binds them, by wrappers that time each call and
charge its duration to the enclosing wrapped call.  A layer's self time is
its duration minus the time of the wrapped calls it makes.  Uninstalling
restores the original functions.  Hot inner helpers are left unwrapped so
that the trace costs a few calls per certificate.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from types import ModuleType

TRACED = {
    "bqf": ("modular_obstruction", "represents"),
    "lattice": ("square_zero_status", "minus_two_status"),
    "certify": ("build_certificate", "lemma21_check"),
    "clifford": ("verify_clifford",),
    "cli": ("main", "certificate_to_dict", "scan_row", "rows_to_csv"),
}
# Calls that build_certificate makes into other layers; the rest is its self time.
CERTIFY_CHILDREN = ("lattice.square_zero_status", "lattice.minus_two_status",
                    "clifford.verify_clifford")
SERIALIZE = ("cli.certificate_to_dict", "cli.json.dumps", "cli.scan_row", "cli.rows_to_csv")

LAYER_METRICS = {
    "bqf.modular_obstruction.ms": "ms",
    "bqf.represents.ms": "ms",
    "bqf.walk.ms": "ms",
    "bqf.obstructed_share": "ratio",
    "bqf.witness_bits.max": "bits",
    "bqf.witness_bits.sum": "bits",
    "lattice.square_zero_status.ms": "ms",
    "certify.build_certificate.ms": "ms",
    "certify.build_certificate.failed": "count",
    "certify.lemma21_check.ms": "ms",
    "certify.self.ms": "ms",
    "clifford.verify_clifford.calls": "count",
    "clifford.verify_clifford.ms": "ms",
    "clifford.slices.sum": "count",
    "clifford.region_size.sum": "count",
    "cli.main.ms": "ms",
    "cli.serialize.ms": "ms",
    "cli.overhead.ms": "ms",
    "cli.exit2.count": "count",
}


class _JsonProxy:
    """Stands in for the json module inside k3cert.cli so that its dumps
    calls are timed; everything else is forwarded."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Accumulates per-layer totals over the calls made while installed."""

    def __init__(self, modules: dict[str, ModuleType]):
        self._modules = modules
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._stack: list[dict[str, float]] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        wrappers = {}
        for short, names in TRACED.items():
            module = self._modules[short]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for module in self._modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        cli = self._modules["cli"]
        self._patch(cli, "json", _JsonProxy(self._wrap("cli.json.dumps", json.dumps)))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _patch(self, module: ModuleType, attr: str, value: object) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            children: dict[str, float] = defaultdict(float)
            self._stack.append(children)
            t0 = time.perf_counter()
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][name] += dt
                self.seconds[name] += dt
                self.counts[name] += 1
                self._observe(name, result, failed, dt, children)
        return traced

    def _observe(self, name, result, failed, dt, children) -> None:
        if name == "bqf.represents" and result is not None:
            if result.status.value == "obstructed_mod":
                self.counts["obstructed"] += 1
            else:
                self.seconds["walk"] += dt - children["bqf.modular_obstruction"]
            if result.witness is not None:
                bits = max(abs(v).bit_length() for v in result.witness)
                self.counts["witness_bits.sum"] += bits
                self.counts["witness_bits.max"] = max(self.counts["witness_bits.max"], bits)
        elif name == "clifford.verify_clifford" and result is not None:
            self.counts["slices"] += 2 * result.bound_n + 1
            self.counts["region_size"] += result.region_size
        elif name == "certify.build_certificate":
            self.counts["build_failed"] += bool(failed)
            self.seconds["certify.self"] += dt - sum(children[c] for c in CERTIFY_CHILDREN)
        elif name == "cli.main":
            self.counts["exit2"] += result == 2
            serialize = sum(children[c] for c in SERIALIZE)
            self.seconds["serialize"] += serialize
            self.seconds["cli.overhead"] += (dt - serialize
                                             - children["certify.build_certificate"])

    def metrics(self, cells: int, scale: float) -> dict[str, float]:
        """The per-layer metrics, in LAYER_METRICS units, over `cells`
        attempted cells, with times multiplied by `scale`."""
        ms = defaultdict(float, {k: v * 1e3 * scale for k, v in self.seconds.items()})
        c = self.counts
        return {
            "bqf.modular_obstruction.ms": ms["bqf.modular_obstruction"],
            "bqf.represents.ms": ms["bqf.represents"],
            "bqf.walk.ms": ms["walk"],
            "bqf.obstructed_share": c["obstructed"] / cells,
            "bqf.witness_bits.max": c["witness_bits.max"],
            "bqf.witness_bits.sum": c["witness_bits.sum"],
            "lattice.square_zero_status.ms": ms["lattice.square_zero_status"],
            "certify.build_certificate.ms": ms["certify.build_certificate"],
            "certify.build_certificate.failed": c["build_failed"],
            "certify.lemma21_check.ms": ms["certify.lemma21_check"],
            "certify.self.ms": ms["certify.self"],
            "clifford.verify_clifford.calls": c["clifford.verify_clifford"],
            "clifford.verify_clifford.ms": ms["clifford.verify_clifford"],
            "clifford.slices.sum": c["slices"],
            "clifford.region_size.sum": c["region_size"],
            "cli.main.ms": ms["cli.main"],
            "cli.serialize.ms": ms["serialize"],
            "cli.overhead.ms": ms["cli.overhead"],
            "cli.exit2.count": c["exit2"],
        }
