"""The benchmark's four workloads.

Every workload runs the shipped defaults (P-192, the fast GKM field,
dense ACV, ACV build cache on, serial OCBE) from one process, and every
loop is closed: a cycle's arrivals, publish and settle finish before the
next cycle starts.  A workload object owns its world:

* ``setup(rec, lap)`` builds it (``rec`` receives the checks of set-up
  publishes, ``lap`` is called after each piece of a long set-up so
  that its timing is scaled piece by piece); it may be called again
  after ``teardown()``;
* ``cycle(rec)`` runs one closed-loop cycle and records its samples;
* ``finish(rec)`` checks whatever a cycle left unchecked;
* ``at_boundary()`` says whether the window may end after this cycle;
* ``cache_stats()`` sums ``Publisher.acv_cache_stats()`` over the run.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
from dataclasses import dataclass
from typing import Dict, Tuple

from harness import (
    ArrivalStream,
    MemoryWorld,
    Recorder,
    TcpWorld,
    feed_class,
    no_lap,
    scenario_for,
)
from repro.load.scenarios import feed_publisher
from repro.load.spec import AttributeSpec, RelaySpec


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the defaults are the benchmark's."""

    #: Warm members of broadcast-steady and churn-rekey (a multiple of
    #: five, so the stratified class mix is exact).
    population: int = 60
    #: Members revoked, and admitted, per churn-rekey cycle.
    churn: int = 1
    #: Arrivals per join-wave batch (each batch ends in one publish): one,
    #: so that a window holds near 300 publishes and their median is
    #: steady (with two it holds 144 and moves by 9 % between runs).
    wave_batch: int = 1
    #: Arrivals per join-wave wave; the world is rebuilt after each wave,
    #: which keeps the population small.  A multiple of ten, so that each
    #: of the two publishers gets whole class blocks and every wave has
    #: the same class mix, whatever the seed.
    wave_members: int = 50
    #: relay-tcp publishes per settle-to-quiet accounting check.
    check_every: int = 500
    #: Broadcasts / registrations the byte means cover (the first ones of
    #: the window, so the means are fixed by the seed).
    byte_ops: int = 24


DEFAULT_SIZES = Sizes()


@dataclass(frozen=True)
class Info:
    """What BENCHMARK.json and ``workloads.json`` say about a workload."""

    why: str
    loop: str
    concurrency: str
    loads: Tuple[str, ...]
    bypasses: Tuple[str, ...]
    #: The latency whose traced/untraced p50 ratio is ``load.trace_overhead``.
    headline: str
    #: Whether the window admits members (and so reports join metrics).
    joins: bool
    setup: str
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps: int


class _Workload:
    name = ""
    info: Info

    def __init__(self, seed: int, sizes: Sizes, root: str):
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.world = None
        self._worlds = 0
        self._closed_stats = {"hits": 0, "misses": 0}

    def _world_dir(self) -> str:
        self._worlds += 1
        return os.path.join(self.root, "world%03d" % self._worlds)

    def teardown(self) -> None:
        if self.world is not None:
            stats = self._world_stats()
            for key in self._closed_stats:
                self._closed_stats[key] += stats[key]
            data_root = self.world.engine.data_root
            self.world.close()
            shutil.rmtree(data_root, ignore_errors=True)
            self.world = None

    def _world_stats(self) -> Dict[str, int]:
        totals = {"hits": 0, "misses": 0}
        for service in self.world.engine.services.values():
            stats = service.publisher.acv_cache_stats()
            for key in totals:
                totals[key] += stats[key]
        return totals

    def cache_stats(self) -> Dict[str, int]:
        stats = self._world_stats() if self.world is not None else {"hits": 0, "misses": 0}
        return {k: self._closed_stats[k] + stats[k] for k in stats}

    def finish(self, rec: Recorder) -> None:
        """Nothing is left unchecked by a memory-driver cycle."""

    def frames(self) -> int:
        """Frames the broker has delivered so far (no broker: 0)."""
        return 0

    def at_boundary(self) -> bool:
        """Whether a window may end after the cycle just run."""
        return True


class JoinWave(_Workload):
    name = "join-wave"
    info = Info(
        why=(
            "OCBE registration dominates: members arrive one by one into "
            "a small population, each arrival ending in one publish that "
            "extends the cached ACV factorization; delivery stays cheap"
        ),
        loop="closed: a batch of wave_batch arrivals registers, then one publish settles",
        concurrency="one process, one thread, memory driver",
        loads=("groups", "ocbe", "crypto.schnorr", "wire.sessions", "store.wal",
               "gkm.update", "mathx.extend"),
        bypasses=("net", "gkm.cache-hit path"),
        headline="join",
        joins=True,
        setup="world construction only (two feed publishers, no members)",
        setup_reps=41,
    )

    def __init__(self, seed, sizes, root):
        super().__init__(seed, sizes, root)
        rng = random.Random("%d/join-wave" % seed)
        self.publishers = (feed_publisher("alpha"), feed_publisher("beta"))
        names = [spec.name for spec in self.publishers]
        first = rng.randrange(len(names))
        # One stream per publisher keeps each publisher's class mix
        # stratified, whatever the seed.
        streams = {name: ArrivalStream(rng) for name in names}
        batches = max(sizes.wave_members // sizes.wave_batch, 1)
        #: One wave's script, replayed by every wave of the run.
        self.script = []
        for b in range(batches):
            name = names[(first + b) % len(names)]
            self.script.append(
                (name, [streams[name].draw() for _ in range(sizes.wave_batch)])
            )
        self.position = 0

    def setup(self, rec: Recorder, lap=no_lap) -> None:
        self.world = MemoryWorld(
            scenario_for("join-wave", self.seed, self.publishers),
            self._world_dir(),
        )
        self.position = 0

    def at_boundary(self) -> bool:
        # Publish cost grows with the population through a wave, so a
        # window holds whole waves: its samples are then the same mix of
        # population sizes on every run.
        return self.position == len(self.script)

    def cycle(self, rec: Recorder) -> None:
        if self.position == len(self.script):
            # A new wave starts in a new, empty world; building it is
            # set-up work, not admission.
            with rec.excluded():
                self.teardown()
                self.setup(rec)
        publisher, values = self.script[self.position]
        self.position += 1
        self.world.admit([(publisher, v) for v in values], rec)
        self.world.broadcast(publisher, rec)


class _WarmPopulation(_Workload):
    """One feed publisher with ``sizes.population`` registered members and
    one checked warm-up publish (which fills the ACV build cache)."""

    def __init__(self, seed, sizes, root):
        super().__init__(seed, sizes, root)
        self.spec = feed_publisher("alpha")
        self.rng = random.Random("%d/%s" % (seed, self.name))
        stream = ArrivalStream(self.rng)
        self.initial = [stream.draw() for _ in range(sizes.population)]
        self.stream = stream

    def setup(self, rec: Recorder, lap=no_lap) -> None:
        self.world = MemoryWorld(
            scenario_for(self.name, self.seed, (self.spec,)), self._world_dir()
        )
        lap()
        batch = 10
        for start in range(0, len(self.initial), batch):
            self.world.admit(
                [(self.spec.name, v) for v in self.initial[start:start + batch]],
                None,
            )
            lap()
        self.world.broadcast(self.spec.name, rec)


class BroadcastSteady(_WarmPopulation):
    name = "broadcast-steady"
    info = Info(
        why=(
            "Read side of gkm: back-to-back publishes to a warm population, "
            "every one an ACV-cache hit, so derivation hashing, header "
            "decode and AES do the work"
        ),
        loop="closed: one publish, settled to idle, per cycle",
        concurrency="one process, one thread, memory driver",
        loads=("gkm.derive", "crypto.hash", "crypto.cipher", "wire.decode",
               "system.receive"),
        bypasses=("ocbe", "groups", "mathx", "gkm.solve", "gkm.update",
                  "store.wal", "net"),
        headline="deliver",
        joins=False,
        setup="world construction plus registration of the warm population and one warm-up publish",
        setup_reps=3,
    )

    def cycle(self, rec: Recorder) -> None:
        self.world.broadcast(self.spec.name, rec)


class ChurnRekey(_WarmPopulation):
    name = "churn-rekey"
    info = Info(
        why=(
            "Write side of gkm: each cycle revokes and admits members, so "
            "every publish re-solves the access matrix with fresh nonces; "
            "the cache hit path is never taken"
        ),
        loop="closed: revoke churn members, admit as many, one publish settles",
        concurrency="one process, one thread, memory driver",
        loads=("mathx.rref", "gkm.solve", "crypto.hash", "gkm.derive",
               "ocbe", "groups", "store.wal"),
        bypasses=("gkm.cache-hit path", "gkm.update", "net"),
        headline="publish",
        joins=True,
        setup="world construction plus registration of the warm population and one warm-up publish",
        setup_reps=3,
    )

    def cycle(self, rec: Recorder) -> None:
        world = self.world
        current = sorted(
            (m for m in world.members_of(self.spec.name) if not m.revoked),
            key=lambda m: m.user,
        )
        leaving = self.rng.sample(current, self.sizes.churn)
        world.revoke(self.spec.name, leaving)
        # Each leaver is replaced by an arrival of the same clearance
        # class, so the entitled share never drifts.
        arrivals = [
            (self.spec.name,
             self.stream.value(feed_class(world.values[m.user])))
            for m in leaving
        ]
        world.admit(arrivals, rec)
        world.broadcast(self.spec.name, rec)
        with rec.excluded():
            for member in leaving:
                world.retire(member)


class RelayTcp(_Workload):
    name = "relay-tcp"
    info = Info(
        why=(
            "Only workload with repro.net on the critical path: broker and "
            "one relay as OS processes, one member behind the relay, "
            "back-to-back publishes"
        ),
        loop="closed: one publish, pumped until the member processed it",
        concurrency=(
            "one generator process (caller thread plus the TcpTransport "
            "event-loop thread); broker and relay are one process each"
        ),
        loads=("net.stream", "net.broker", "net.relay", "system.pump",
               "gkm.derive", "wire"),
        bypasses=("ocbe", "groups", "mathx", "gkm.solve", "store.wal"),
        headline="deliver",
        joins=False,
        setup="broker and relay processes started, one member admitted through the relay, one publish",
        setup_reps=3,
    )

    def __init__(self, seed, sizes, root):
        super().__init__(seed, sizes, root)
        base = feed_publisher("alpha")
        # The one member is always entitled to both segments, so the
        # per-publish work does not depend on the seed.
        self.spec = dataclasses.replace(
            base, attributes=(AttributeSpec(base.attributes[0].name, 80, 99),)
        )

    def setup(self, rec: Recorder, lap=no_lap) -> None:
        scenario = scenario_for(
            "relay-tcp", self.seed, (self.spec,),
            topology=(RelaySpec(name="relay1"),),
        )
        self.world = TcpWorld(scenario, self._world_dir(), members=1)
        self.world.settle(rec)

    def cycle(self, rec: Recorder) -> None:
        self.world.broadcast(rec, self.sizes.check_every)

    def finish(self, rec: Recorder) -> None:
        self.world.finish(rec)

    def frames(self) -> int:
        return self.world.delivered_total()


WORKLOADS = {
    cls.name: cls for cls in (JoinWave, BroadcastSteady, ChurnRekey, RelayTcp)
}
