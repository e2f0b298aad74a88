"""Subscriber key derivation with and without reused KEV hashes.

A subscriber derives ``K = KEV . X`` with ``a_j = H(css || z_j) mod q``
over every published nonce.  Its :class:`~repro.gkm.acv.KevMemo` keeps
the ``a_j`` of the last header per CSS tuple and slot, so a derivation
costs:

* **cold** -- nonces never seen (a revoke drew fresh ones): N hashes;
* **warm** -- the same nonces again (an ACV-cache hit): no hash at all;
* **join** -- the old nonces plus ``JOINED`` appended ones (a pure-join
  extension): ``JOINED`` hashes.

Measured at N in {64, 256} on the fast and the 80-bit paper field.  The
ACVs mix every null-space vector (``compress_terms=None``), so ``X`` is
dense and a cold derivation really hashes all N nonces; a few rows keep
the paper-field solve cheap.  Every timed derivation is checked against
the memo-less reference key.

Emits ``BENCH_gkm_derive.json`` and asserts warm >= 10x cold at N=256.
"""

import random
import time

from repro.bench.runner import Measurement, emit_bench_json, format_table
from repro.gkm.acv import FAST_FIELD, PAPER_FIELD, AcvBgkm, KevMemo
from repro.workloads.generator import make_css_rows

SIZES = (64, 256)
FIELDS = (("fast", FAST_FIELD), ("paper", PAPER_FIELD))
ROWS = 8
JOINED = 8
ROUNDS = 30
SEED = 0xDE21


def _measure(prepare, timed, rounds=ROUNDS):
    """Wall time of ``timed(state)`` over ``rounds``, each on a fresh
    untimed ``prepare()``."""
    times = []
    for _ in range(rounds):
        state = prepare()
        start = time.perf_counter()
        timed(state)
        times.append(time.perf_counter() - start)
    return Measurement(
        mean=sum(times) / len(times),
        minimum=min(times),
        maximum=max(times),
        rounds=len(times),
    )


def _headers(core, n, rng):
    """A subscriber row, a header over ``n - JOINED`` nonces, and the
    pure-join extension of it to ``n`` nonces."""
    rows = make_css_rows(ROWS, rng=rng)
    _, old, fact = core.generate_with_factorization(
        rows, n_max=n - JOINED, rng=rng
    )
    fact.extend(make_css_rows(JOINED, rng=rng), added_capacity=JOINED, rng=rng)
    key, new = core.rekey_from_factorization(fact, rng=rng)
    assert new.zs[: n - JOINED] == old.zs
    assert all(new.x), "a dense X makes every nonce count"
    return rows[0], old, key, new


def test_derive_memo_speedup():
    rng = random.Random(SEED)
    measurements = {}
    bytes_counts = {}
    table = []
    speedups = {}
    for label, field in FIELDS:
        core = AcvBgkm(field, compress_terms=None)
        for n in SIZES:
            css, old, key, new = _headers(core, n, rng)

            def derive(memo, header=new):
                assert core.derive(header, css, memo) == key

            def warmed(header):
                memo = KevMemo()
                core.derive(header, css, memo)
                return memo

            cold = _measure(KevMemo, derive)
            warm = _measure(lambda: warmed(new), derive)
            join = _measure(lambda: warmed(old), derive)
            suffix = "%s_n%d" % (label, n)
            measurements["cold_" + suffix] = cold
            measurements["warm_" + suffix] = warm
            measurements["join_" + suffix] = join
            bytes_counts["header_" + suffix] = new.byte_size()
            speedups[suffix] = cold.mean / max(warm.mean, 1e-9)
            table.append([
                label, n, cold.mean_ms, warm.mean_ms, join.mean_ms,
                speedups[suffix],
            ])

    print()
    print(format_table(
        "Subscriber derive: fresh nonces vs reused KEV hashes",
        ["field", "N", "cold ms", "warm ms", "join ms", "cold/warm"],
        table,
    ))
    path = emit_bench_json(
        "gkm_derive",
        op="subscriber-derive",
        params={
            "sizes": list(SIZES),
            "rows": ROWS,
            "joined": JOINED,
            "rounds": ROUNDS,
            "seed": SEED,
        },
        measurements=measurements,
        bytes_counts=bytes_counts,
        extra={"warm_speedup": speedups},
    )
    print("wrote %s" % path)

    for label, _ in FIELDS:
        suffix = "%s_n256" % label
        assert speedups[suffix] >= 10, (
            "%s: warm derive only %.1fx faster than cold" % (suffix, speedups[suffix])
        )
