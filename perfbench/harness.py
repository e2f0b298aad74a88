"""Shared machinery of the repository benchmark.

* the quantile rule every timing goes through (:func:`nearest_rank`);
* :class:`Recorder`, which collects raw samples, byte counts and the
  outcome of every correctness check of one run;
* :class:`SpeedProbe` and :class:`SetupClock`, which scale timings to
  a reference machine speed;
* :class:`ArrivalStream`, the seeded, stratified attribute draws;
* :class:`MemoryWorld` and :class:`TcpWorld`, thin drivers over a
  :class:`repro.load.LoadEngine` world that admit members, publish and
  settle through the public service endpoints, timing each step and
  checking every delivered plaintext against a reference entitlement.

The reference entitlement is computed here, from the publisher spec's
condition strings and the member's drawn value, without the program's
policy evaluator.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

from repro.errors import InvariantViolation, ReproError
from repro.load import invariants
from repro.load.engine import LoadEngine, Member
from repro.load.spec import LoadScenario, PhaseSpec, PublisherSpec
from repro.store import SubscriberPersistence
from repro.system.service import SubscriberClient, run_until_idle
from repro.system.subscriber import Subscriber
from repro.system.transport import BROADCAST

#: A tail percentile is only reported with at least this many samples
#: ranked above it.
MIN_BEYOND = 10

#: The tail percentile of every latency.  On a shared machine p95 and
#: p99 of millisecond operations move by more than a quarter from run to
#: run (and relay-tcp's flip between the plateaus below and above the
#: pump loop's 5 ms idle sleep); p90 holds still.
TAIL_Q = 0.90

#: An admission or a delivery that takes longer than this is a failed
#: operation, whatever its outcome.
OP_DEADLINE_S = 10.0

#: Cap on pump rounds for one admission (a stalled protocol is a failure).
MAX_ROUNDS = 10_000

#: At most this many failure messages are kept for printing.
MAX_MESSAGES = 20

#: The CPU-speed reference: one :func:`probe_work` takes this long at
#: speed 1.0 (about its median on an idle two-vCPU Intel Xeon container
#: under CPython 3.11).
REFERENCE_S = 0.00045

#: Modulus of the probe's big-integer arithmetic (the P-192 prime).
_PROBE_MODULUS = (1 << 192) - (1 << 64) - 1


def nearest_rank(values: Sequence[float], q: float):
    """The ``q`` quantile by the nearest-rank rule, and how many samples
    rank above it.

    For ``n`` samples sorted ascending the quantile is the one of rank
    ``ceil(q * n)`` (1-based).  Returns ``(value, beyond)`` with
    ``beyond = n - rank``; ``(None, 0)`` for no samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, 0
    rank = min(max(math.ceil(q * n), 1), n)
    return ordered[rank - 1], n - rank


def tail_label(q: float) -> str:
    return "p%d" % round(q * 100)


class Recorder:
    """Everything one measured window produces.

    ``excluded()`` brackets the benchmark's own work inside a cycle
    (correctness checks, settle-to-quiet waits): its wall time is kept
    out of the window, and a tracer passed in is paused around it.
    """

    def __init__(self, tracer=None):
        self.samples: Dict[str, List[float]] = {}
        self.broadcast_sizes: List[int] = []
        self.join_sizes: List[int] = []
        self.counts: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.excluded_s = 0.0
        #: Window time as measured, and scaled to the reference speed.
        self.window_s = 0.0
        self.reference_window_s = 0.0
        self.tracer = tracer
        #: ``(label, sorted plaintext items)`` per member check, in order:
        #: what the reproducibility check compares across runs.
        self.deliveries: List[tuple] = []

    def sample(self, family: str, seconds: float) -> None:
        self.samples.setdefault(family, []).append(seconds)

    def marks(self) -> Dict[str, int]:
        return {family: len(values) for family, values in self.samples.items()}

    def scale_since(self, marks: Dict[str, int], factor: float) -> None:
        """Divide the samples recorded after ``marks`` by ``factor``."""
        for family, values in self.samples.items():
            for i in range(marks.get(family, 0), len(values)):
                values[i] /= factor

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def check(self, ok: bool, message: str) -> None:
        """One attempted check; a false ``ok`` is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def fail(self, message: str) -> None:
        self.check(False, message)

    @contextmanager
    def excluded(self):
        paused = self.tracer is not None and self.tracer.recording
        if paused:
            self.tracer.recording = False
        started = time.perf_counter()
        try:
            yield
        finally:
            self.excluded_s += time.perf_counter() - started
            if paused:
                self.tracer.recording = True


def probe_work() -> int:
    """A fixed piece of work in the program's mix -- SHA-256 of short
    strings, 192-bit modular products, small containers -- written here
    so that no change to the program can change it."""
    acc = 12345678901234567890123
    scratch = {}
    for i in range(300):
        digest = hashlib.sha256(
            acc.to_bytes(32, "big") + i.to_bytes(4, "big")
        ).digest()
        value = int.from_bytes(digest, "big") % _PROBE_MODULUS
        acc = (acc * value + i) % _PROBE_MODULUS
        scratch[i & 63] = [value, digest, (i, acc)]
    return acc


class SpeedProbe:
    """How fast this machine runs the program right now, relative to the
    reference.

    On a shared machine the speed a process gets drifts by tens of
    percent over seconds, which moves every timing of a run together.
    The benchmark times :func:`probe_work` after every cycle (outside the
    window) and divides the cycle's timings by :meth:`local`, the probe
    speed around that cycle, to what they would read at the reference
    speed.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        started = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Median probe time over the reference time: 1.2 means this run
        ran 1.2 times slower than the reference."""
        return self._ratio(self.samples)

    def local(self) -> float:
        """:meth:`factor` over the three latest probes: the probes just
        before and just after the cycle that just ended, and one more."""
        return self._ratio(self.samples[-3:])

    @staticmethod
    def _ratio(samples: List[float]) -> float:
        return statistics.median(samples) / REFERENCE_S if samples else 1.0


class SetupClock:
    """The scaled time of one set-up, taken in laps: the workload calls
    :meth:`lap` after each piece of its set-up, and each piece is scaled
    by the probes around it, as a measured cycle is."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.seconds = 0.0
        probe.sample()
        probe.sample()
        self._started = time.perf_counter()

    def lap(self) -> None:
        elapsed = time.perf_counter() - self._started
        self.probe.sample()
        self.seconds += elapsed / self.probe.local()
        self._started = time.perf_counter()


def no_lap() -> None:
    """The ``lap`` of a set-up that is not timed."""


# -- inputs --------------------------------------------------------------------

#: Clearance classes of a ``feed_publisher`` ([0, 99], thresholds 40/80):
#: entitled to nothing, to the body, to body and VIP brief.
FEED_CLASSES = ((0, 39), (40, 79), (80, 99))

#: One block of five arrivals in the proportions of the uniform [0, 99]
#: mix.  Drawing class blocks (shuffled per block) instead of raw values
#: keeps the entitled share, and so the derivation work per broadcast,
#: the same on every seed; the seed still picks order and values.
CLASS_BLOCK = (0, 0, 1, 1, 2)


class ArrivalStream:
    """Seeded clearance draws for arriving members."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._block: List[int] = []

    def next_class(self) -> int:
        if not self._block:
            self._block = list(CLASS_BLOCK)
            self.rng.shuffle(self._block)
        return self._block.pop()

    def value(self, cls: int) -> int:
        low, high = FEED_CLASSES[cls]
        return self.rng.randint(low, high)

    def draw(self) -> int:
        return self.value(self.next_class())


def feed_class(value: int) -> int:
    """The :data:`FEED_CLASSES` index holding ``value``."""
    return next(
        i for i, (low, high) in enumerate(FEED_CLASSES) if low <= value <= high
    )


def entitled_plaintexts(spec: PublisherSpec, value: int) -> Dict[str, bytes]:
    """Reference entitlement of a member holding ``value`` for the
    publisher's single attribute: the segments of its first document
    whose policy (``attribute >= literal``) the value satisfies."""
    document = spec.documents[0]
    content = {seg: text.encode("utf-8") for seg, text in document.segments}
    entitled: Dict[str, bytes] = {}
    for policy in spec.policies:
        if policy.document != document.name:
            continue
        _, op, literal = policy.condition.split()
        if op != ">=":
            raise ValueError("reference only models '>=' policies")
        if value >= int(literal):
            for segment in policy.segments:
                entitled[segment] = content[segment]
    return entitled


def scenario_for(name: str, seed: int, publishers: Sequence[PublisherSpec],
                 **kw) -> LoadScenario:
    """A shipped-defaults scenario around ``publishers`` (its phases are
    never run by the memory workloads, which admit members themselves)."""
    return LoadScenario(
        name=name, seed=seed, publishers=tuple(publishers),
        phases=(PhaseSpec(kind="join", count=1),), **kw,
    ).validate()


# -- the in-memory driver --------------------------------------------------------

class MemoryWorld:
    """One ``memory``-driver world whose members the benchmark admits.

    The engine builds IdP, IdMgr, publishers and services; members are
    spawned here with benchmark-drawn values so each admission can be
    timed per member, and every broadcast is settled with
    :func:`run_until_idle` and checked.
    """

    def __init__(self, scenario: LoadScenario, data_root: str):
        os.makedirs(data_root, exist_ok=True)
        self.scenario = scenario
        self.data_root = data_root
        self.engine = LoadEngine(scenario, driver="memory", data_root=data_root)
        self.engine.start()
        self.transport = self.engine.transport
        self.specs = {spec.name: spec for spec in scenario.publishers}
        self.documents = {
            spec.name: spec.documents[0].build() for spec in scenario.publishers
        }
        self.expected_conditions = {
            spec.name: spec.conditions_per_attribute()
            for spec in scenario.publishers
        }
        self.values: Dict[str, int] = {}
        self.owed: Dict[str, int] = {}
        self._next_user = 0

    def close(self) -> None:
        self.engine.close()

    def members_of(self, publisher: str) -> List[Member]:
        return [
            m for m in self.engine.members.values()
            if m.publisher == publisher and m.alive
        ]

    # -- admission ----------------------------------------------------------

    def _spawn(self, publisher: str, value: int) -> Member:
        engine = self.engine
        user = "u%05d" % self._next_user
        self._next_user += 1
        attribute = self.specs[publisher].attributes[0].name
        engine.idp.enroll(user, attribute, value)
        nym = engine.idmgr.assign_pseudonym()
        member = Member(user, publisher, {attribute: value}, nym,
                        os.path.join(self.data_root, user))
        subscriber = Subscriber(
            nym, engine.params,
            rng=random.Random("%s/%s" % (self.scenario.seed, user)),
        )
        member.subscriber = subscriber
        member.persistence = SubscriberPersistence.attach(
            member.data_dir, subscriber, sync=False
        )
        member.client = SubscriberClient(
            subscriber, engine.transport, publisher_name=publisher,
            idmgr_name="idmgr", persistence=member.persistence,
        )
        member.alive = True
        engine.members[user] = member
        self.values[user] = value
        self.owed[user] = 0
        member.client.request_token(
            attribute, assertion=engine.idp.assert_attribute(user, attribute)
        )
        return member

    def _registered(self, member: Member) -> bool:
        client = member.client
        if client.registering():
            return False
        expected = self.expected_conditions[member.publisher]
        return all(
            len(client.results.get(name, {})) >= expected.get(name, 0)
            for name in member.attributes
        )

    def admit(self, arrivals: Sequence[tuple], rec: Optional[Recorder]) -> List[Member]:
        """Admit ``(publisher, value)`` arrivals as one closed batch.

        A member's latency runs from its first token request until every
        one of its registration sessions has finished; completion is
        observed once per pump round over all endpoints.
        """
        messages = self.transport.messages
        mark = len(messages)
        pending = []
        for publisher, value in arrivals:
            started = time.perf_counter()
            pending.append([self._spawn(publisher, value), started, False])
        endpoints = self.engine.endpoints()
        admitted: List[Member] = []
        for _ in range(MAX_ROUNDS):
            progressed = 0
            for endpoint in endpoints:
                progressed += endpoint.pump()
            now = time.perf_counter()
            for entry in list(pending):
                member, started, registering = entry
                if not registering:
                    tags = set(member.subscriber.attribute_tags())
                    if tags == set(member.attributes):
                        member.client.register_all_attributes()
                        entry[2] = True
                        progressed += 1
                elif self._registered(member):
                    pending.remove(entry)
                    admitted.append(member)
                    if rec is not None:
                        rec.sample("join", now - started)
                        rec.count("joins")
                        rec.check(
                            now - started <= OP_DEADLINE_S,
                            "join of %s missed its %.0f s deadline"
                            % (member.user, OP_DEADLINE_S),
                        )
            if not pending:
                break
            if progressed == 0:
                raise ReproError(
                    "admission stalled with %d members unregistered" % len(pending)
                )
        else:
            raise ReproError("admission did not finish in %d rounds" % MAX_ROUNDS)
        if rec is not None:
            with rec.excluded():
                for member in admitted:
                    rec.join_sizes.append(sum(
                        r.size for r in messages[mark:]
                        if member.nym in (r.sender, r.receiver)
                    ))
        return admitted

    # -- revocation ---------------------------------------------------------

    def revoke(self, publisher: str, members: Sequence[Member]) -> None:
        """One batched revocation at ``publisher``; the next broadcast is
        the rekey."""
        removed = self.engine.services[publisher].publisher.revoke_subscriptions(
            [m.nym for m in members]
        )
        if removed != len(members):
            raise ReproError(
                "revocation removed %d of %d members" % (removed, len(members))
            )
        for member in members:
            member.revoked = True

    def retire(self, member: Member) -> None:
        """Drop a revoked member after its lockout was checked: it stops
        consuming broadcasts, like a departed subscriber process."""
        if member.persistence is not None:
            member.persistence.close()
        member.persistence = None
        member.client = None
        member.subscriber = None
        member.alive = False
        del self.engine.members[member.user]

    # -- broadcast ------------------------------------------------------------

    def broadcast(self, publisher: str, rec: Recorder) -> None:
        """Publish the publisher's document once, settle, check."""
        service = self.engine.services[publisher]
        messages = self.transport.messages
        mark = len(messages)
        audience = self.members_of(publisher)
        started = time.perf_counter()
        service.publish(self.documents[publisher])
        published = time.perf_counter()
        run_until_idle(self.engine.endpoints())
        settled = time.perf_counter()
        for member in audience:
            self.owed[member.user] += 1
        rec.sample("publish", published - started)
        rec.sample("deliver", settled - started)
        rec.count("broadcasts")
        with rec.excluded():
            rec.check(
                settled - started <= OP_DEADLINE_S,
                "broadcast by %s missed its deadline" % publisher,
            )
            records = messages[mark:]
            rec.broadcast_sizes.extend(
                r.size for r in records
                if r.sender == publisher and r.receiver == BROADCAST
            )
            check_window(records, [publisher], 1, rec)
            self.check_members(publisher, audience, rec)

    def check_members(self, publisher: str, audience: Sequence[Member],
                      rec: Recorder) -> None:
        """Every member that was live at publish time: entitled segments
        decrypt, nothing else does, exactly one package arrived; revoked
        ones hold nothing and are gone from the publisher's table."""
        spec = self.specs[publisher]
        document = spec.documents[0].name
        table = self.engine.services[publisher].publisher.table
        pseudonyms = set(table.pseudonyms())
        for member in audience:
            actual = member.client.documents.get(document)
            if member.revoked:
                expected: Dict[str, bytes] = {}
                rec.check(
                    member.nym not in pseudonyms,
                    "revoked %s still has CSS rows" % member.user,
                )
            else:
                expected = entitled_plaintexts(spec, self.values[member.user])
            rec.check(
                actual == expected,
                "%s%s derived %s of %s, entitled to %s" % (
                    "revoked " if member.revoked else "", member.user,
                    sorted(actual or {}), document, sorted(expected),
                ),
            )
            check_received(member, self.owed, rec)
            rec.deliveries.append(
                (member.user, tuple(sorted((actual or {}).items())))
            )


def check_received(member: Member, owed: Dict[str, int], rec: Recorder) -> None:
    """Exactly the owed packages arrived since the last check.

    The client's package history is then cleared: kept, it would grow
    with every broadcast of the run and make later cycles slower.
    """
    client = member.client
    rec.check(
        len(client.packages) == owed[member.user],
        "%s received %d packages, owed %d"
        % (member.user, len(client.packages), owed[member.user]),
    )
    client.packages.clear()
    client.broadcasts.clear()
    owed[member.user] = 0


def check_window(records, publisher_names, broadcasts: int, rec: Recorder) -> None:
    """The engine's zero-unicast rekey invariant over one window."""
    try:
        invariants.check_rekey_window(
            records, publisher_names, broadcasts, context="benchmark window"
        )
    except InvariantViolation as exc:
        rec.fail(str(exc))
    else:
        rec.check(True, "")


# -- the TCP driver --------------------------------------------------------------

def _threads_onto(cpus) -> None:
    """Move every thread of this process onto ``cpus``."""
    for tid in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


class TcpWorld:
    """One ``tcp``-driver world: broker and relays as OS processes, one
    publisher and the members admitted by the engine's own join phase.

    With two CPUs or more, the broker and relay processes run on one CPU
    and every thread of this process on another.  Left to the scheduler,
    between 1 % and 12 % of deliveries wait out the pump loop's 5 ms idle
    sleep, varying from second to second and from run to run; placed,
    nearly all of them do on every run.
    """

    def __init__(self, scenario: LoadScenario, data_root: str, members: int):
        os.makedirs(data_root, exist_ok=True)
        self.scenario = scenario
        self.cpus = set(os.sched_getaffinity(0))
        placed = sorted(self.cpus)[:2] if len(self.cpus) >= 2 else None
        self.engine = LoadEngine(
            scenario, driver="tcp", broker="process", data_root=data_root,
            timeout=OP_DEADLINE_S,
        )
        try:
            if placed:
                # Spawned processes inherit the spawning thread's CPUs.
                _threads_onto({placed[1]})
            try:
                self.engine.start()
            finally:
                if placed:
                    _threads_onto({placed[0]})
            self.engine.run_phase(0, PhaseSpec(kind="join", count=members))
        except BaseException:
            self.close()
            raise
        self.transport = self.engine.transport
        spec = scenario.publishers[0]
        self.spec = spec
        self.publisher = spec.name
        self.document = spec.documents[0].build()
        self.members = list(self.engine.members.values())
        self.owed = {m.user: 0 for m in self.members}
        for member in self.members:
            member.client.packages.clear()
            member.client.broadcasts.clear()
        self._mark = 0
        self._since_mark = 0

    def close(self) -> None:
        try:
            self.engine.close()
        finally:
            _threads_onto(self.cpus)

    def settle(self, rec: Recorder) -> None:
        """Settle to quiet, check the accounting window since the last
        settle (zero unicast, broadcast sizes) and start a new one."""
        from repro.net.runtime import wait_until_quiet

        wait_until_quiet(self.transport, self.engine.endpoints(),
                         timeout=OP_DEADLINE_S)
        messages = self.transport.snapshot().messages
        if self._since_mark:
            records = messages[self._mark:]
            sizes = [
                r.size for r in records
                if r.sender == self.publisher and r.receiver == BROADCAST
            ]
            rec.broadcast_sizes.extend(sizes)
            rec.count("net.bytes", sum(r.size for r in records))
            check_window(records, [self.publisher], self._since_mark, rec)
        self._mark = len(messages)
        self._since_mark = 0

    def delivered_total(self) -> int:
        return self.transport.stats().delivered_total

    def broadcast(self, rec: Recorder, check_every: int) -> None:
        from repro.net.runtime import pump_until

        service = self.engine.services[self.publisher]
        for member in self.members:
            self.owed[member.user] += 1
        endpoints = self.engine.endpoints()
        started = time.perf_counter()
        service.publish(self.document)
        published = time.perf_counter()
        pump_until(
            endpoints,
            lambda: all(
                len(m.client.packages) >= self.owed[m.user] for m in self.members
            ),
            timeout=OP_DEADLINE_S,
        )
        settled = time.perf_counter()
        self._since_mark += 1
        rec.sample("publish", published - started)
        rec.sample("deliver", settled - started)
        rec.count("broadcasts")
        with rec.excluded():
            for member in self.members:
                actual = member.client.documents.get(self.document.name)
                expected = entitled_plaintexts(
                    self.spec, member.attributes[self.spec.attributes[0].name]
                )
                rec.check(
                    actual == expected,
                    "%s derived %s, entitled to %s"
                    % (member.user, sorted(actual or {}), sorted(expected)),
                )
                check_received(member, self.owed, rec)
                rec.deliveries.append(
                    (member.user, tuple(sorted((actual or {}).items())))
                )
            if self._since_mark >= check_every:
                self.settle(rec)

    def finish(self, rec: Recorder) -> None:
        """Check the last partial accounting window."""
        with rec.excluded():
            self.settle(rec)
