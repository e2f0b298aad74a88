"""Per-layer accounting for the traced run.

:class:`LayerTracer` wraps the public functions of each layer module,
from outside the program, for the length of one traced window.  Each
name is patched where its callers look it up: a module-level function is
replaced in every loaded ``repro`` module that holds it (``gkm.acv``,
``system.service`` and others import ``hash_concat``, ``decode_message``
and the like by name), a method on the class that defines it.
:meth:`LayerTracer.uninstall` puts every original object back.

Accounting is a span stack on the caller thread: a layer's self time is
the duration of its calls minus the part covered by wrapped calls of
other layers inside them.  A wrapped call made while the same layer is
already innermost is folded into that span, so ``_n`` counts entries
into a layer.  Calls on other threads (the TCP transport's event loop)
and calls made while the benchmark pauses the tracer for its own checks
are not recorded.  Whatever the window spends outside every wrapped call
is the residual: layer self times plus ``load.residual_s`` equal the
traced window by construction.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

#: ``(layer, "module:Owner.attr", observer)``.  ``Owner`` may be ``*``
#: (every class defined in the module that defines ``attr`` itself); a
#: bare ``attr`` is a module-level function.
TARGETS = (
    ("mathx.rref", "repro.mathx.linalg:Matrix.rref", None),
    ("mathx.rref", "repro.mathx.linalg:Matrix.null_space", None),
    ("mathx.rref", "repro.mathx.linalg:null_space", None),
    ("mathx.rref", "repro.mathx.linalg:RrefFactorization.from_matrix", None),
    ("mathx.extend", "repro.mathx.linalg:RrefFactorization.extend_row", None),
    ("mathx.extend", "repro.mathx.linalg:RrefFactorization.extend_column", None),
    ("crypto.hash", "repro.crypto.hashes:hash_concat", None),
    ("crypto.cipher", "repro.crypto.symmetric:*.encrypt", None),
    ("crypto.cipher", "repro.crypto.symmetric:*.decrypt", "decrypt_ok"),
    ("crypto.schnorr", "repro.crypto.schnorr_sig:SchnorrKeyPair.sign", None),
    ("crypto.schnorr", "repro.crypto.schnorr_sig:SchnorrKeyPair.verify", None),
    ("crypto.schnorr", "repro.crypto.schnorr_sig:verify", None),
    ("groups.fixed_pow", "repro.groups.precompute:FixedBaseTable.pow", None),
    ("groups.var_pow", "repro.groups.elliptic:ECPoint.__pow__", None),
    ("ocbe.compose", "repro.ocbe.ge:*.compose_with", None),
    ("ocbe.compose", "repro.ocbe.eq:*.compose_with", None),
    ("ocbe.compose", "repro.ocbe.derived:*.compose_with", None),
    ("ocbe.open", "repro.ocbe.ge:*.open", None),
    ("ocbe.open", "repro.ocbe.eq:*.open", None),
    ("ocbe.open", "repro.ocbe.derived:*.open", None),
    ("ocbe.open", "repro.ocbe.ge:*.commitment_message", None),
    ("ocbe.open", "repro.ocbe.eq:*.commitment_message", None),
    ("ocbe.open", "repro.ocbe.derived:*.commitment_message", None),
    ("gkm.solve", "repro.gkm.acv:AcvBgkm.generate", None),
    ("gkm.solve", "repro.gkm.acv:AcvBgkm.generate_with_factorization", None),
    ("gkm.update", "repro.gkm.acv:AcvFactorization.extend", None),
    ("gkm.update", "repro.gkm.acv:AcvBgkm.rekey_from_factorization", None),
    ("gkm.derive", "repro.gkm.acv:AcvBgkm.derive", None),
    ("gkm.derive", "repro.gkm.acv:AcvBgkm.key_extraction_vector", None),
    ("wire.encode", "repro.wire.messages:encode_message", "encode_bytes"),
    ("wire.encode", "repro.wire.messages:WireMessage.encode", "encode_bytes"),
    ("wire.decode", "repro.wire.messages:decode_message", None),
    ("wire.decode", "repro.gkm.acv:AcvHeader.from_bytes", None),
    ("system.publish", "repro.system.publisher:Publisher.publish", None),
    ("policy.plan", "repro.system.publisher:Publisher.plan", None),
    ("system.receive", "repro.system.subscriber:Subscriber.receive", None),
    ("system.pump", "repro.system.service:_Endpoint.pump", None),
    ("store.wal_append", "repro.store.wal:WriteAheadLog.append", None),
    ("net.poll", "repro.net.transport:TcpTransport.poll", "poll_useful"),
)

#: Outcome observers: what a wrapped call's result adds to
#: :attr:`LayerTracer.outcomes`, given the spans still open around it.
#: ``decrypt_ok`` counts only decryptions of a received broadcast (OCBE
#: envelopes are decrypted with the same cipher).
OBSERVERS: Dict[str, Callable[[list, object], int]] = {
    "decrypt_ok": lambda stack, result: int(
        any(frame[0] == "system.receive" for frame in stack)
    ),
    "encode_bytes": lambda stack, result: len(result),
    "poll_useful": lambda stack, result: 1 if result else 0,
}


class _TimeShim:
    """Stand-in for the ``time`` module inside ``repro.net.runtime``
    whose ``sleep`` is wrapped: the pump loops' idle waits."""

    def __init__(self, sleep):
        self.sleep = sleep

    def __getattr__(self, name):
        return getattr(time, name)


class LayerTracer:
    def __init__(self):
        #: Set by the benchmark loop: record only inside the window and
        #: outside the benchmark's own checks.
        self.recording = False
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.failures: Counter = Counter()
        self.outcomes: Counter = Counter()
        self._stack: List[list] = []
        self._thread = threading.get_ident()
        #: ``(owner, name, original, owned)`` per patch, in install order.
        self.patches: List[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, layer: str, fn, observer: Optional[str] = None):
        stack = self._stack
        observe = OBSERVERS[observer] if observer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if (
                not self.recording
                or (stack and stack[-1][0] == layer)
                or threading.get_ident() != self._thread
            ):
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.failures[(layer, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                self.outcomes[observer] += observe(stack, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, new) -> None:
        owned = name in vars(owner)
        self.patches.append((owner, name, vars(owner).get(name), owned))
        setattr(owner, name, new)

    def _patch_attribute(self, layer: str, cls, name: str, observer) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, raw.__func__, observer))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, raw.__func__, observer))
        else:
            new = self.wrap(layer, raw, observer)
        self._patch(cls, name, new)

    def _patch_function(self, layer: str, module, name: str, observer) -> None:
        original = vars(module)[name]
        wrapper = self.wrap(layer, original, observer)
        for loaded in list(sys.modules.values()):
            if loaded is None or not loaded.__name__.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, key, wrapper)

    def install(self) -> "LayerTracer":
        try:
            for layer, target, observer in TARGETS:
                module_name, path = target.split(":")
                module = importlib.import_module(module_name)
                if "." not in path:
                    self._patch_function(layer, module, path, observer)
                    continue
                owner, name = path.split(".")
                if owner == "*":
                    classes = [
                        value for value in list(vars(module).values())
                        if isinstance(value, type)
                        and value.__module__ == module.__name__
                        and name in vars(value)
                    ]
                else:
                    classes = [getattr(module, owner)]
                if not classes:
                    raise LookupError("no class in %s defines %s"
                                      % (module_name, name))
                for cls in classes:
                    self._patch_attribute(layer, cls, name, observer)
            runtime = importlib.import_module("repro.net.runtime")
            self._patch(runtime, "time",
                        _TimeShim(self.wrap("net.wait", time.sleep)))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self.patches:
            owner, name, original, owned = self.patches.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


#: Per-layer metrics: ``(name, unit, better)``, in report order.
PER_LAYER = (
    ("mathx.rref_n", "count", "lower"),
    ("mathx.rref_s", "s", "lower"),
    ("mathx.extend_n", "count", "lower"),
    ("mathx.extend_s", "s", "lower"),
    ("crypto.hash_n", "count", "lower"),
    ("crypto.hash_s", "s", "lower"),
    ("crypto.cipher_n", "count", "lower"),
    ("crypto.cipher_s", "s", "lower"),
    ("crypto.decrypt_fail_n", "count", "lower"),
    ("crypto.schnorr_n", "count", "lower"),
    ("crypto.schnorr_s", "s", "lower"),
    ("groups.fixed_pow_n", "count", "lower"),
    ("groups.fixed_pow_s", "s", "lower"),
    ("groups.var_pow_n", "count", "lower"),
    ("groups.var_pow_s", "s", "lower"),
    ("ocbe.compose_n", "count", "lower"),
    ("ocbe.compose_s", "s", "lower"),
    ("ocbe.open_n", "count", "lower"),
    ("ocbe.open_s", "s", "lower"),
    ("gkm.solve_n", "count", "lower"),
    ("gkm.solve_s", "s", "lower"),
    ("gkm.update_n", "count", "lower"),
    ("gkm.update_s", "s", "lower"),
    ("gkm.derive_n", "count", "lower"),
    ("gkm.derive_s", "s", "lower"),
    ("gkm.cache_hit_ratio", "ratio", "higher"),
    ("gkm.derive_useful_ratio", "ratio", "higher"),
    ("wire.encode_n", "count", "lower"),
    ("wire.encode_s", "s", "lower"),
    ("wire.encode_bytes", "B", "lower"),
    ("wire.decode_n", "count", "lower"),
    ("wire.decode_s", "s", "lower"),
    ("system.publish_self_s", "s", "lower"),
    ("policy.plan_s", "s", "lower"),
    ("system.receive_self_s", "s", "lower"),
    ("system.pump_self_s", "s", "lower"),
    ("store.wal_append_n", "count", "lower"),
    ("store.wal_append_s", "s", "lower"),
    ("net.wait_s", "s", "lower"),
    ("net.poll_n", "count", "lower"),
    ("net.poll_s", "s", "lower"),
    ("net.poll_useful_ratio", "ratio", "higher"),
    ("net.frames_n", "count", "lower"),
    ("net.bytes", "B", "lower"),
    ("load.window_s", "s", "lower"),
    ("load.residual_s", "s", "lower"),
    ("load.trace_overhead", "ratio", "lower"),
)

#: Layers reported with ``_n`` and ``_s``; the rest of the self-time
#: layers are reported under the names in :data:`_SELF_NAMES`.
_COUNTED = (
    "mathx.rref", "mathx.extend", "crypto.hash", "crypto.cipher",
    "crypto.schnorr", "groups.fixed_pow", "groups.var_pow", "ocbe.compose",
    "ocbe.open", "gkm.solve", "gkm.update", "gkm.derive", "wire.encode",
    "wire.decode", "store.wal_append",
)
_SELF_NAMES = {
    "system.publish": "system.publish_self_s",
    "policy.plan": "policy.plan_s",
    "system.receive": "system.receive_self_s",
    "system.pump": "system.pump_self_s",
    "net.wait": "net.wait_s",
    "net.poll": "net.poll_s",
}


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: LayerTracer,
    window_s: float,
    cache: Dict[str, int],
    frames: int,
    net_bytes: int,
    trace_overhead: float,
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced window."""
    values: Dict[str, float] = {}
    for layer in _COUNTED:
        values[layer + "_n"] = tracer.calls[layer]
        values[layer + "_s"] = tracer.self_s[layer]
    for layer, name in _SELF_NAMES.items():
        values[name] = tracer.self_s[layer]
    values["crypto.decrypt_fail_n"] = tracer.failures[
        ("crypto.cipher", "DecryptionError")
    ]
    values["gkm.cache_hit_ratio"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    values["gkm.derive_useful_ratio"] = _ratio(
        tracer.outcomes["decrypt_ok"], tracer.calls["gkm.derive"]
    )
    values["wire.encode_bytes"] = tracer.outcomes["encode_bytes"]
    values["net.poll_n"] = tracer.calls["net.poll"]
    values["net.poll_useful_ratio"] = _ratio(
        tracer.outcomes["poll_useful"], tracer.calls["net.poll"]
    )
    values["net.frames_n"] = frames
    values["net.bytes"] = net_bytes
    values["load.window_s"] = window_s
    values["load.residual_s"] = window_s - sum(tracer.self_s.values())
    values["load.trace_overhead"] = trace_overhead
    return {name: values[name] for name, _, _ in PER_LAYER}
