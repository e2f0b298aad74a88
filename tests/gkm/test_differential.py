"""Differential GKM harness: alternative build paths are equivalent.

A publish-path optimisation is only safe if it is *behaviorally
invisible*: for any member set, bucket count and join/revoke history,
members derive exactly the key the baseline scheme would give them and
everyone else fails exactly as before.  This file proves it
differentially for three swaps:

* **bucketed vs dense** (PR 5) -- at the core, flat-adapter (including
  ``member_state()`` checkpoint round trips) and load-engine levels;
* **incremental vs from-scratch** -- the rank-1 join maintenance: a
  cache-carried :class:`~repro.gkm.acv.AcvFactorization` extended across
  joins must produce headers with identical derivation and lockout
  behaviour to a full re-solve, across join-only and join/revoke
  interleaved scripts, dense and bucketed, cold restarts mid-sequence,
  and (end to end) the warm-churn scenario on both load drivers;
* **memo vs reference derivation** -- a :class:`~repro.system.subscriber.Subscriber`
  reusing KEV hashes through its memo must derive exactly the keys of the
  memo-less :meth:`~repro.gkm.acv.AcvBgkm.derive`, across join, revoke
  and credential-replacement scripts, dense and bucketed.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashes import default_hash
from repro.crypto.pedersen import PedersenParams
from repro.crypto.symmetric import default_cipher
from repro.documents.package import (
    BroadcastPackage,
    ConfigHeader,
    EncryptedSubdocument,
)
from repro.errors import KeyDerivationError
from repro.gkm.acv import FAST_FIELD, AcvBgkm, AcvBroadcastGkm
from repro.gkm.buckets import BucketedHeader
from repro.gkm.buckets import BucketedAcvBgkm, BucketedBroadcastGkm
from repro.gkm.strategy import (
    AcvBuildCache,
    BucketedGkmStrategy,
    DenseGkmStrategy,
    build_strategy,
)
from repro.load import LoadEngine, bucketed, smoke_scenario
from repro.groups import get_group
from repro.load.scenarios import warm_churn_scenario
from repro.system.publisher import SystemParams
from repro.system.subscriber import Subscriber
from repro.workloads.generator import make_css_rows


# -- core level ---------------------------------------------------------------


@given(
    n_rows=st.integers(min_value=0, max_value=12),
    bucket_size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40)
def test_core_members_derive_nonmembers_fail(n_rows, bucket_size, seed):
    rng = random.Random(seed)
    rows = make_css_rows(n_rows, rng=rng) if n_rows else []
    dense = AcvBgkm(FAST_FIELD)
    split = BucketedAcvBgkm(bucket_size=bucket_size, field=FAST_FIELD)
    dense_key, dense_header = dense.generate(rows, rng=rng)
    split_key, split_header = split.generate(rows, rng=rng)
    outsider = (bytes(rng.randrange(256) for _ in range(16)),)
    for index, row in enumerate(rows):
        # Every member derives its scheme's key...
        assert dense.derive(dense_header, row) == dense_key
        assert split.derive(split_header, row, bucket=index // bucket_size) == (
            split_key
        )
    # ...and a non-member CSS fails under both schemes alike.
    assert dense.derive(dense_header, outsider) != dense_key
    assert split_key not in split.derive_candidates(split_header, outsider)


@given(
    n_rows=st.integers(min_value=1, max_value=10),
    bucket_size=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25)
def test_strategy_layer_matches_core(n_rows, bucket_size, seed):
    """The publish-path strategy objects agree with the raw schemes."""
    rng = random.Random(seed)
    rows = make_css_rows(n_rows, rng=rng)
    core = AcvBgkm(FAST_FIELD)
    dense = DenseGkmStrategy(core)
    split = BucketedGkmStrategy(
        core, bucket_size=bucket_size or None
    )  # 0 -> auto
    dense_key, dense_header = dense.build(
        rows, capacity=None, slack=0, rng=random.Random(seed)
    )
    split_key, split_header = split.build(
        rows, capacity=None, slack=0, rng=random.Random(seed)
    )
    size = split.resolve_bucket_size(len(rows))
    assert len(split_header.buckets) == (len(rows) + size - 1) // size
    for index, row in enumerate(rows):
        assert core.derive(dense_header, row) == dense_key
        assert core.derive(split_header.buckets[index // size], row) == split_key


# -- flat adapters under churn ------------------------------------------------


def _secret(rng):
    return bytes(rng.randrange(256) for _ in range(16))


def _apply_ops(schemes, ops):
    """Replay a join/revoke script against every scheme identically."""
    members = {}
    counter = 0
    rng = random.Random(0xD1FF)
    for op in ops:
        if op == "join" or not members:
            member_id = "m%03d" % counter
            counter += 1
            secret = _secret(rng)
            members[member_id] = secret
            for scheme in schemes:
                scheme.join(member_id, secret)
        else:
            member_id = sorted(members)[op % len(members)]
            members.pop(member_id)
            for scheme in schemes:
                scheme.leave(member_id)
    return members


def _assert_equivalent(dense, split, members, removed, seed):
    dense_key, dense_bcast = dense.rekey(rng=random.Random(seed))
    split_key, split_bcast = split.rekey(rng=random.Random(seed))
    for secret in members.values():
        assert dense.derive(secret, dense_bcast) == dense_key
        assert split.derive(secret, split_bcast) == split_key
    for secret in removed:
        # "Fails" for the soft-failure ACV family: the derived bytes are
        # not the group key (or derivation refuses outright).
        for scheme, broadcast, key in (
            (dense, dense_bcast, dense_key),
            (split, split_bcast, split_key),
        ):
            try:
                assert scheme.derive(secret, broadcast) != key
            except KeyDerivationError:
                pass


@given(
    ops=st.lists(
        st.one_of(st.just("join"), st.integers(min_value=0, max_value=10)),
        min_size=1,
        max_size=14,
    ),
    bucket_size=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25)
def test_adapters_equivalent_under_churn(ops, bucket_size, seed):
    dense = AcvBroadcastGkm(field=FAST_FIELD)
    split = BucketedBroadcastGkm(
        bucket_size=bucket_size or None, field=FAST_FIELD
    )
    members = _apply_ops((dense, split), ops)
    all_secrets = {m: s for m, s in members.items()}
    removed = [_secret(random.Random(seed + 1))]  # a never-joined outsider
    _assert_equivalent(dense, split, all_secrets, removed, seed)
    # Revoke roughly half and rekey: the leavers must now fail too.
    leavers = sorted(members)[: len(members) // 2]
    removed_secrets = [members[m] for m in leavers]
    for member_id in leavers:
        dense.leave(member_id)
        split.leave(member_id)
        members.pop(member_id)
    if members:
        _assert_equivalent(
            dense, split, members, removed + removed_secrets, seed + 2
        )


@given(
    n_members=st.integers(min_value=1, max_value=10),
    bucket_size=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=20)
def test_member_state_round_trip_equivalence(n_members, bucket_size, seed):
    """Checkpoint/restore preserves the differential equivalence, and the
    two schemes' checkpoints are byte-identical (shared base encoding)."""
    rng = random.Random(seed)
    dense = AcvBroadcastGkm(field=FAST_FIELD)
    split = BucketedBroadcastGkm(
        bucket_size=bucket_size or None, field=FAST_FIELD
    )
    members = {}
    for index in range(n_members):
        secret = _secret(rng)
        members["m%03d" % index] = secret
        dense.join("m%03d" % index, secret)
        split.join("m%03d" % index, secret)
    assert dense.member_state() == split.member_state()

    restored_dense = AcvBroadcastGkm(field=FAST_FIELD)
    restored_split = BucketedBroadcastGkm(
        bucket_size=bucket_size or None, field=FAST_FIELD
    )
    # Cross-restore: each scheme restores the OTHER's checkpoint, which
    # only works if membership state is scheme-independent.
    restored_dense.restore_members(split.member_state())
    restored_split.restore_members(dense.member_state())
    assert restored_dense.members == members
    assert restored_split.members == members
    outsider = [_secret(random.Random(seed + 7))]
    _assert_equivalent(restored_dense, restored_split, members, outsider, seed)
    # Restore-away: replace with half the membership; the removed half
    # must stop deriving after the next rekey, exactly like a revoke.
    keep = dict(sorted(members.items())[: (n_members + 1) // 2])
    gone = [members[m] for m in members if m not in keep]
    checkpoint_holder = AcvBroadcastGkm(field=FAST_FIELD)
    for member_id, secret in keep.items():
        checkpoint_holder.join(member_id, secret)
    state = checkpoint_holder.member_state()
    restored_dense.restore_members(state)
    restored_split.restore_members(state)
    _assert_equivalent(restored_dense, restored_split, keep, gone, seed + 3)


def test_adapter_capacity_is_per_bucket():
    """The capacity knob means the same thing on both adapters: padded
    columns that hide the fill (per header for dense, per bucket for
    bucketed) — members derive, the column count is the configured one,
    and an undersized capacity is a typed CapacityError."""
    from repro.errors import CapacityError

    rng = random.Random(11)
    members = {"m%d" % i: _secret(rng) for i in range(5)}
    dense = AcvBroadcastGkm(field=FAST_FIELD, capacity=8)
    split = BucketedBroadcastGkm(bucket_size=2, field=FAST_FIELD, capacity=8)
    for member_id, secret in members.items():
        dense.join(member_id, secret)
        split.join(member_id, secret)
    dense_key, dense_bcast = dense.rekey(rng=random.Random(1))
    split_key, split_bcast = split.rekey(rng=random.Random(1))
    assert dense_bcast.parts.capacity == 8
    assert all(b.capacity == 8 for b in split_bcast.parts.buckets)
    for secret in members.values():
        assert dense.derive(secret, dense_bcast) == dense_key
        assert split.derive(secret, split_bcast) == split_key

    tight = BucketedBroadcastGkm(bucket_size=4, field=FAST_FIELD, capacity=2)
    for member_id, secret in members.items():
        tight.join(member_id, secret)
    with pytest.raises(CapacityError):
        tight.rekey(rng=random.Random(2))


# -- incremental vs from-scratch ----------------------------------------------


def _assert_header_behaviour(core, header, key, rows, outsiders, bucket_size):
    """Members derive ``key``; outsiders (revoked or never joined) do not."""
    if bucket_size is None:
        for row in rows:
            assert core.derive(header, row) == key
        for row in outsiders:
            assert core.derive(header, row) != key
    else:
        for index, row in enumerate(rows):
            assert core.derive(header.buckets[index // bucket_size], row) == key
        for row in outsiders:
            assert all(core.derive(b, row) != key for b in header.buckets)


@given(
    ops=st.lists(
        st.one_of(st.just("join"), st.integers(min_value=0, max_value=10)),
        min_size=1,
        max_size=12,
    ),
    gkm=st.sampled_from(["dense", "bucketed"]),
    restart=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_incremental_vs_scratch_membership_sweep(ops, gkm, restart, seed):
    """Random join/revoke scripts (join-only included), dense and
    bucketed: after every membership change the cache-backed build -- a
    mix of exact hits, incremental extensions and full solves -- and a
    cache-free from-scratch build must both give every current member the
    build's key and lock out every removed row and outsiders.

    ``restart`` drops the cache mid-sequence, modelling a publisher
    restart: durable CSS state survives recovery, the process-local
    factorizations do not, and parity must hold straight through.
    """
    rng = random.Random(seed)
    core = AcvBgkm(FAST_FIELD)
    bucket_size = 3 if gkm == "bucketed" else None
    cache = AcvBuildCache()
    warm = build_strategy(gkm, core, cache, bucket_size=bucket_size)
    cold = build_strategy(gkm, core, None, bucket_size=bucket_size)
    build_rng = random.Random(seed + 1)
    rows, removed = [], []
    for step, op in enumerate(ops):
        if op == "join" or not rows:
            rows.extend(make_css_rows(1, rng=rng))
            cache.note_join()
        else:
            removed.append(rows.pop(op % len(rows)))
            cache.invalidate()
        if restart and step == len(ops) // 2:
            cache = AcvBuildCache()
            warm = build_strategy(gkm, core, cache, bucket_size=bucket_size)
        warm_key, warm_header = warm.build(rows, capacity=None, slack=0, rng=build_rng)
        cold_key, cold_header = cold.build(rows, capacity=None, slack=0, rng=build_rng)
        outsiders = removed + [(b"never-joined",)]
        _assert_header_behaviour(
            core, warm_header, warm_key, rows, outsiders, bucket_size
        )
        _assert_header_behaviour(
            core, cold_header, cold_key, rows, outsiders, bucket_size
        )


def test_incremental_join_only_sequence_actually_extends():
    """Deterministic join-only ramp: beyond the cold start every dense
    build must take the delta path (no full re-solve sneaks back in), and
    behaviour stays identical to the scratch build."""
    rng = random.Random(0xACE)
    core = AcvBgkm(FAST_FIELD)
    cache = AcvBuildCache()
    warm = DenseGkmStrategy(core, cache)
    cold = DenseGkmStrategy(core)
    rows = []
    for _ in range(8):
        rows.extend(make_css_rows(1, rng=rng))
        cache.note_join()
        warm_key, warm_header = warm.build(rows, capacity=None, slack=0, rng=rng)
        cold_key, cold_header = cold.build(rows, capacity=None, slack=0, rng=rng)
        _assert_header_behaviour(
            core, warm_header, warm_key, rows, [(b"outsider",)], None
        )
        _assert_header_behaviour(
            core, cold_header, cold_key, rows, [(b"outsider",)], None
        )
    assert cache.stats()["extends"] == 7  # every build after the first


@given(
    initial=st.integers(min_value=0, max_value=6),
    joins=st.integers(min_value=1, max_value=5),
    extra_capacity=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25)
def test_extended_factorization_annihilates_rebuilt_matrix(
    initial, joins, extra_capacity, seed
):
    """Property: after staged extensions, the carried null-space basis
    equals (element for element) the basis of the fully rebuilt matrix
    and annihilates every row of it."""
    rng = random.Random(seed)
    core = AcvBgkm(FAST_FIELD)
    rows = make_css_rows(initial, rng=rng) if initial else []
    _, _, fact = core.generate_with_factorization(
        rows, n_max=initial + 1, rng=rng
    )
    first, second = joins // 2, joins - joins // 2
    if first:
        fact.extend(make_css_rows(first, rng=rng), added_capacity=first, rng=rng)
    fact.extend(
        make_css_rows(second, rng=rng),
        added_capacity=second - 1 + extra_capacity,
        rng=rng,
    )
    rebuilt = core.build_matrix(fact.rows, fact.zs)
    basis = fact.null_basis()
    assert basis == rebuilt.null_space()
    for vector in basis:
        assert all(x == 0 for x in rebuilt.mat_vec(vector))


def test_extension_parity_on_the_paper_field():
    """The 80-bit paper field takes the pure-Python kernels end to end:
    one staged extension, derivation + lockout + annihilation parity."""
    from repro.gkm.acv import PAPER_FIELD

    rng = random.Random(0x80B17)
    core = AcvBgkm(PAPER_FIELD)
    rows = make_css_rows(4, rng=rng)
    key, header, fact = core.generate_with_factorization(rows, n_max=4, rng=rng)
    for row in rows:
        assert core.derive(header, row) == key
    joined = make_css_rows(2, rng=rng)
    fact.extend(joined, added_capacity=2, rng=rng)
    key2, header2 = core.rekey_from_factorization(fact, rng=rng)
    for row in rows + joined:
        assert core.derive(header2, row) == key2
    assert core.derive(header2, (b"outsider",)) != key2
    rebuilt = core.build_matrix(fact.rows, fact.zs)
    assert fact.null_basis() == rebuilt.null_space()


# -- subscriber memo vs reference derivation ----------------------------------

_MEMO_PARAMS = SystemParams(
    pedersen=PedersenParams(get_group("nist-p192")),
    idmgr_public_key=None,
    gkm_field=FAST_FIELD,
    hash_fn=default_hash(),
    cipher=default_cipher(),
    key_len=16,
    attribute_bits=8,
)


def _memo_package(core, key, header):
    """One single-condition configuration over ``header``, through bytes."""
    sym_key = core.export_key(key, _MEMO_PARAMS.key_len)
    package = BroadcastPackage(
        document="doc",
        headers=(ConfigHeader("cfg", (("cond",),), header),),
        subdocuments=(
            EncryptedSubdocument(
                "body", "cfg", _MEMO_PARAMS.cipher.encrypt(sym_key, b"payload")
            ),
        ),
    )
    return BroadcastPackage.from_bytes(package.to_bytes())


@given(
    ops=st.lists(
        st.one_of(
            st.sampled_from(["join", "publish", "replace"]),
            st.integers(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=14,
    ),
    gkm=st.sampled_from(["dense", "bucketed"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_subscriber_memo_matches_reference_derivation(ops, gkm, seed):
    """Random join / revoke / credential-replacement / plain-republish
    scripts through a warm build cache (so headers repeat and extend
    nonces): every member's memo-backed candidate keys equal the
    memo-less derivation bucket for bucket, members decrypt, and revoked
    members -- whose memos stay warm -- and replaced credentials are
    locked out."""
    rng = random.Random(seed)
    core = AcvBgkm(FAST_FIELD)
    cache = AcvBuildCache()
    strategy = build_strategy(
        gkm, core, cache, bucket_size=3 if gkm == "bucketed" else None
    )
    live, revoked, stale_css = [], [], []

    def new_css():
        return bytes(rng.randrange(256) for _ in range(16))

    for op in ops:
        if op == "join" or not live:
            sub = Subscriber("pn-%d" % (len(live) + len(revoked)), _MEMO_PARAMS)
            sub.store_css("cond", new_css())
            live.append(sub)
            cache.note_join()
        elif op == "replace":
            sub = live[rng.randrange(len(live))]
            stale_css.append(sub.css_store["cond"])
            sub.store_css("cond", new_css())
            cache.invalidate()
        elif op != "publish":
            revoked.append(live.pop(op % len(live)))
            cache.invalidate()
        rows = [(sub.css_store["cond"],) for sub in live]
        key, header = strategy.build(rows, capacity=None, slack=0, rng=rng)
        package = _memo_package(core, key, header)
        wire_header = package.headers[0]
        buckets = (
            wire_header.acv.buckets
            if isinstance(wire_header.acv, BucketedHeader)
            else (wire_header.acv,)
        )
        for sub in live:
            css = (sub.css_store["cond"],)
            reference = [
                core.export_key(core.derive(bucket, css), _MEMO_PARAMS.key_len)
                for bucket in buckets
            ]
            assert sub._derive_config_key(wire_header, 0) == reference
            assert sub.receive(package) == {"body": b"payload"}
        for sub in revoked:
            assert sub.receive(package) == {}
        for css in stale_css:
            assert all(core.derive(bucket, (css,)) != key for bucket in buckets)


# -- end to end through the load engine --------------------------------------


def _delivered_plaintexts(scenario, driver="memory"):
    """{user: {document: {segment: plaintext}}} after a full scenario run."""
    with LoadEngine(scenario, driver=driver) as engine:
        engine.run()
        return {
            member.user: {
                name: dict(plaintexts)
                for name, plaintexts in member.client.documents.items()
            }
            for member in engine.members.values()
            if member.client is not None
        }


def test_smoke_scenario_differential_memory():
    """Dense vs bucketed smoke run: byte-identical delivered plaintexts."""
    dense = _delivered_plaintexts(smoke_scenario())
    split = _delivered_plaintexts(bucketed(smoke_scenario()))
    assert dense.keys() == split.keys()
    assert dense == split


@pytest.mark.slow
def test_smoke_scenario_differential_both_drivers():
    """The full 2x2: {dense, bucketed} x {memory, tcp} all agree."""
    runs = {
        (gkm, driver): _delivered_plaintexts(
            bucketed(smoke_scenario()) if gkm == "bucketed" else smoke_scenario(),
            driver=driver,
        )
        for gkm in ("dense", "bucketed")
        for driver in ("memory", "tcp")
    }
    reference = runs[("dense", "memory")]
    assert reference  # the population actually decrypted something
    for key, plaintexts in runs.items():
        assert plaintexts == reference, "run %r diverged" % (key,)


def _scratch(scenario):
    """The same scenario with the ACV build cache disabled: every publish
    re-solves from scratch -- the incremental path's baseline."""
    return dataclasses.replace(
        scenario, name="%s-scratch" % scenario.name, acv_cache=False
    ).validate()


def _warm_churn_run(scenario, driver="memory"):
    """(plaintexts, per-publisher cache stats) for one warm-churn run."""
    with LoadEngine(scenario, driver=driver) as engine:
        engine.run()
        plaintexts = {
            member.user: {
                name: dict(texts)
                for name, texts in member.client.documents.items()
            }
            for member in engine.members.values()
            if member.client is not None
        }
        stats = {
            name: service.publisher.acv_cache_stats()
            for name, service in engine.services.items()
        }
        return plaintexts, stats


def test_warm_churn_incremental_vs_scratch_memory():
    """The warm-churn scenario under incremental maintenance vs full
    re-solves: identical delivered plaintexts (the engine has already
    asserted lockout and derivation invariants inside both runs), and the
    incremental run really took the delta path."""
    warm_docs, warm_stats = _warm_churn_run(warm_churn_scenario())
    cold_docs, cold_stats = _warm_churn_run(_scratch(warm_churn_scenario()))
    assert warm_docs  # the population decrypted something
    assert warm_docs == cold_docs
    for name, stats in warm_stats.items():
        assert stats["extends"] > 0, "publisher %s never extended" % name
    for stats in cold_stats.values():
        assert stats == {
            "hits": 0,
            "misses": 0,
            "extends": 0,
            "epoch": 0,
            "entries": 0,
        }


@pytest.mark.slow
def test_warm_churn_incremental_vs_scratch_both_drivers():
    """The full 2x2: {incremental, scratch} x {memory, tcp} deliver
    identical plaintexts -- the acceptance sweep for the join-delta path
    on both load drivers."""
    runs = {}
    for label, factory in (
        ("incremental", warm_churn_scenario),
        ("scratch", lambda: _scratch(warm_churn_scenario())),
    ):
        for driver in ("memory", "tcp"):
            docs, stats = _warm_churn_run(factory(), driver=driver)
            if label == "incremental":
                assert any(s["extends"] > 0 for s in stats.values())
            runs[(label, driver)] = docs
    reference = runs[("incremental", "memory")]
    assert reference
    for key, plaintexts in runs.items():
        assert plaintexts == reference, "run %r diverged" % (key,)


@pytest.mark.slow
def test_large_population_core_differential():
    """The nightly N=256 sweep: every member of a large population derives
    the shared key from its bucket; a revoked batch fails everywhere."""
    rng = random.Random(0x256)
    rows = make_css_rows(256, rng=rng)
    dense = AcvBgkm(FAST_FIELD)
    split = BucketedAcvBgkm(bucket_size=16, field=FAST_FIELD)
    dense_key, dense_header = dense.generate(rows, rng=rng)
    split_key, split_header = split.generate(rows, rng=rng)
    for index, row in enumerate(rows):
        assert dense.derive(dense_header, row) == dense_key
        assert split.derive(split_header, row, bucket=index // 16) == split_key
    # Revoke a batch: regenerate over the survivors only.
    survivors = rows[32:]
    dense_key2, dense_header2 = dense.generate(survivors, rng=rng)
    split_key2, split_header2 = split.generate(survivors, rng=rng)
    for index, row in enumerate(survivors):
        assert dense.derive(dense_header2, row) == dense_key2
        assert split.derive(split_header2, row, bucket=index // 16) == split_key2
    for row in rows[:32]:
        assert dense.derive(dense_header2, row) != dense_key2
        assert split_key2 not in split.derive_candidates(split_header2, row)
