"""Tests for the ACV-BGKM core."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CapacityError,
    InvalidParameterError,
    KeyDerivationError,
    SerializationError,
)
from repro.crypto.hashes import sha1
from repro.gkm.acv import (
    FAST_FIELD,
    PAPER_FIELD,
    AcvBgkm,
    AcvHeader,
    KevMemo,
    _auto_z_bytes,
)


@pytest.fixture
def gkm():
    return AcvBgkm(FAST_FIELD)


def make_rows(rng, count, arity=2):
    return [
        tuple(bytes(rng.randrange(256) for _ in range(8)) for _ in range(arity))
        for _ in range(count)
    ]


class TestSoundness:
    """Every qualified row derives exactly K (Section VI-B.1)."""

    def test_all_rows_derive(self, gkm, rng):
        rows = make_rows(rng, 6)
        key, header = gkm.generate(rows, n_max=10, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key

    def test_mixed_arity_rows(self, gkm, rng):
        rows = [make_rows(rng, 1, arity)[0] for arity in (1, 2, 3, 5)]
        key, header = gkm.generate(rows, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key

    def test_unqualified_css_does_not_derive(self, gkm, rng):
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, rng=rng)
        assert gkm.derive(header, (b"not-a-css",)) != key

    def test_partial_css_tuple_fails(self, gkm, rng):
        """Holding only one of two CSSs in a conjunction must not help --
        this is the collusion-relevant property at the row level."""
        rows = make_rows(rng, 3, arity=2)
        key, header = gkm.generate(rows, rng=rng)
        assert gkm.derive(header, (rows[0][0],)) != key
        assert gkm.derive(header, (rows[0][0], rows[1][1])) != key

    def test_key_in_multiplicative_group(self, gkm, rng):
        key, _ = gkm.generate(make_rows(rng, 2), rng=rng)
        assert 1 <= key < gkm.field.p

    @settings(max_examples=10)
    @given(n_rows=st.integers(0, 8), slack=st.integers(0, 5), seed=st.integers(0, 99))
    def test_property_soundness(self, n_rows, slack, seed):
        rng = random.Random(seed)
        gkm = AcvBgkm(FAST_FIELD)
        rows = make_rows(rng, n_rows)
        key, header = gkm.generate(rows, n_max=max(n_rows, 1) + slack, rng=rng)
        for row in rows:
            assert gkm.derive(header, row) == key


class TestCapacityAndParameters:
    def test_capacity_violation(self, gkm, rng):
        rows = make_rows(rng, 5)
        with pytest.raises(CapacityError):
            gkm.generate(rows, n_max=4, rng=rng)

    def test_default_capacity_is_row_count(self, gkm, rng):
        rows = make_rows(rng, 5)
        _, header = gkm.generate(rows, rng=rng)
        assert header.capacity == 5

    def test_empty_rows_supported(self, gkm, rng):
        """No qualified subscriber: header exists, nobody derives."""
        key, header = gkm.generate([], n_max=3, rng=rng)
        assert gkm.derive(header, (b"anything",)) != key

    def test_auto_z_bytes_follows_paper_rule(self):
        """tau * N > 160 bits (Section V-C)."""
        for n in (1, 2, 10, 100, 1000):
            assert _auto_z_bytes(n) * 8 * n >= 160

    def test_explicit_z_bytes(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, rng=rng, z_bytes=16)
        assert all(len(z) == 16 for z in header.zs)

    def test_compress_terms_validation(self):
        with pytest.raises(InvalidParameterError):
            AcvBgkm(FAST_FIELD, compress_terms=0)

    def test_works_on_80bit_paper_field(self, rng):
        gkm = AcvBgkm(PAPER_FIELD)
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, n_max=6, rng=rng)
        assert all(gkm.derive(header, row) == key for row in rows)

    def test_fresh_keys_per_generate(self, gkm, rng):
        rows = make_rows(rng, 3)
        k1, h1 = gkm.generate(rows, rng=rng)
        k2, h2 = gkm.generate(rows, rng=rng)
        assert k1 != k2
        assert h1.zs != h2.zs

    def test_system_rng_path(self, gkm):
        rows = make_rows(random.Random(0), 2)
        key, header = gkm.generate(rows)  # secrets-based path
        assert gkm.derive(header, rows[0]) == key


class TestKevStructure:
    def test_kev_first_entry_one(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, rng=rng)
        kev = gkm.key_extraction_vector(header, rows[0])
        assert kev[0] == 1
        assert len(kev) == header.capacity + 1

    def test_kev_skips_zero_coordinates(self, rng):
        gkm = AcvBgkm(FAST_FIELD, compress_terms=1)
        rows = make_rows(rng, 2)
        _, header = gkm.generate(rows, n_max=30, rng=rng)
        kev = gkm.key_extraction_vector(header, rows[0])
        for j in range(1, len(header.x)):
            if header.x[j] == 0:
                assert kev[j] == 0

    def test_export_key_deterministic(self, gkm):
        assert gkm.export_key(12345) == gkm.export_key(12345)
        assert gkm.export_key(12345) != gkm.export_key(12346)
        assert len(gkm.export_key(1, key_len=24)) == 24


class TestHeaderSerialization:
    def test_roundtrip(self, gkm, rng):
        rows = make_rows(rng, 4)
        _, header = gkm.generate(rows, n_max=8, rng=rng)
        parsed = AcvHeader.from_bytes(header.to_bytes())
        assert parsed == header

    def test_roundtrip_sparse(self, rng):
        gkm = AcvBgkm(FAST_FIELD, compress_terms=1)
        rows = make_rows(rng, 2)
        _, header = gkm.generate(rows, n_max=40, rng=rng)
        assert AcvHeader.from_bytes(header.to_bytes()) == header

    def test_roundtrip_empty_rows(self, gkm, rng):
        _, header = gkm.generate([], n_max=2, rng=rng)
        assert AcvHeader.from_bytes(header.to_bytes()) == header

    def test_bad_magic(self):
        with pytest.raises(SerializationError):
            AcvHeader.from_bytes(b"NOPE" + b"\x00" * 20)

    def test_truncated(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, rng=rng)
        raw = header.to_bytes()
        with pytest.raises(SerializationError):
            AcvHeader.from_bytes(raw[: len(raw) // 2])

    def test_compression_shrinks_sparse_headers(self, rng):
        """The Figure-5 effect: fewer current subscribers => smaller ACV."""
        sparse_gkm = AcvBgkm(PAPER_FIELD, compress_terms=1)
        few_rows = make_rows(rng, 10)
        many_rows = make_rows(rng, 80)
        _, sparse_header = sparse_gkm.generate(few_rows, n_max=100, rng=rng)
        _, dense_header = sparse_gkm.generate(many_rows, n_max=100, rng=rng)
        assert sparse_header.byte_size() < dense_header.byte_size()

    def test_derivation_after_serialization(self, gkm, rng):
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        parsed = AcvHeader.from_bytes(header.to_bytes())
        assert gkm.derive(parsed, rows[1]) == key


def _rewrite_modulus(raw: bytes, q: int) -> bytes:
    """Byte-surgically replace the modulus field of a wire header."""
    (q_len,) = struct.unpack_from(">H", raw, 4)
    q_raw = q.to_bytes(q_len, "big")
    return raw[:6] + q_raw + raw[6 + q_len :]


def _rewrite_nonce_counts(raw: bytes, n_z: int, z_len: int) -> bytes:
    """Byte-surgically replace the ``(n_z, z_len)`` fields of a wire header."""
    (q_len,) = struct.unpack_from(">H", raw, 4)
    offset = 6 + q_len
    return raw[:offset] + struct.pack(">IH", n_z, z_len) + raw[offset + 6 :]


class TestHostileHeaders:
    """Attacker-crafted broadcasts must fail typed, never with bare
    ZeroDivisionError / IndexError (regressions for the parse- and
    derive-time validation)."""

    @pytest.fixture
    def raw_header(self, gkm, rng):
        rows = make_rows(rng, 3)
        _, header = gkm.generate(rows, n_max=5, rng=rng)
        return header.to_bytes()

    @pytest.mark.parametrize("bad_q", [0, 1])
    def test_degenerate_modulus_rejected_at_parse(self, raw_header, bad_q):
        # Previously q=0 parsed fine and crashed derive() with
        # ZeroDivisionError; q=1 collapsed every key to 0.
        hostile = _rewrite_modulus(raw_header, bad_q)
        with pytest.raises(SerializationError, match="not a valid field"):
            AcvHeader.from_bytes(hostile)

    def test_zero_width_nonces_rejected_at_parse(self, raw_header):
        hostile = _rewrite_nonce_counts(raw_header, 3, 0)
        with pytest.raises(SerializationError, match="nonce"):
            AcvHeader.from_bytes(hostile)

    def test_zero_nonce_count_rejected_at_parse(self, raw_header):
        hostile = _rewrite_nonce_counts(raw_header, 0, 8)
        with pytest.raises(SerializationError, match="nonce"):
            AcvHeader.from_bytes(hostile)

    def test_short_x_fails_typed_in_kev(self, gkm):
        # len(x) must be capacity + 1; a short X used to escape as a bare
        # IndexError from key_extraction_vector's header.x[j + 1] access.
        header = AcvHeader(q=FAST_FIELD.p, x=(1,), zs=(b"aaaa", b"bbbb"))
        with pytest.raises(KeyDerivationError, match="arity"):
            gkm.key_extraction_vector(header, [b"css"])

    def test_short_x_fails_typed_in_derive(self, gkm):
        header = AcvHeader(q=FAST_FIELD.p, x=(1, 2), zs=(b"aa", b"bb", b"cc"))
        with pytest.raises(KeyDerivationError, match="arity"):
            gkm.derive(header, [b"css"])

    @pytest.mark.parametrize("bad_q", [0, 1])
    def test_degenerate_modulus_fails_typed_in_kev(self, gkm, bad_q):
        # Defense in depth for headers built in-process (bypassing
        # from_bytes), e.g. by the bucketed candidate scan.
        header = AcvHeader(q=bad_q, x=(1, 2, 3), zs=(b"aaaa", b"bbbb"))
        with pytest.raises(KeyDerivationError, match="modulus"):
            gkm.key_extraction_vector(header, [b"css"])

    def test_valid_header_still_parses_after_surgery_helpers(self, raw_header):
        # Sanity-check the byte surgery itself: rewriting the fields with
        # their *original* values must leave the header parseable.
        header = AcvHeader.from_bytes(raw_header)
        same_q = _rewrite_modulus(raw_header, header.q)
        same_z = _rewrite_nonce_counts(
            raw_header, len(header.zs), len(header.zs[0])
        )
        assert AcvHeader.from_bytes(same_q) == header
        assert AcvHeader.from_bytes(same_z) == header


@pytest.fixture
def hash_calls(monkeypatch):
    """Counts the ``hash_concat`` calls ACV derivation makes."""
    import repro.gkm.acv as acv

    calls = [0]
    original = acv.hash_concat

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(acv, "hash_concat", counting)
    return calls


class TestKevMemo:
    """The subscriber memo of KEV hashes: same keys as the memo-less
    reference path, hashing only nonces not seen at the same slot."""

    def test_identical_nonces_hash_nothing(self, gkm, rng, hash_calls):
        rows = make_rows(rng, 6)
        _, _, fact = gkm.generate_with_factorization(rows, rng=rng)
        memo = KevMemo()
        key, header = gkm.rekey_from_factorization(fact, rng=rng)
        assert gkm.derive(header, rows[2], memo) == key
        # A cache hit: same nonces, a fresh key and combination.
        key2, header2 = gkm.rekey_from_factorization(fact, rng=rng)
        hash_calls[0] = 0
        assert gkm.derive(header2, rows[2], memo) == key2
        assert hash_calls[0] == 0

    def test_pure_join_hashes_only_appended_nonces(self, gkm, rng, hash_calls):
        rows = make_rows(rng, 5)
        key, header, fact = gkm.generate_with_factorization(rows, rng=rng)
        memo = KevMemo()
        assert gkm.derive(header, rows[0], memo) == key
        fact.extend(make_rows(rng, 3), added_capacity=3, rng=rng)
        key2, header2 = gkm.rekey_from_factorization(fact, rng=rng)
        assert header2.zs[:5] == header.zs
        hash_calls[0] = 0
        assert gkm.derive(header2, rows[0], memo) == key2
        assert hash_calls[0] == sum(1 for v in header2.x[6:] if v)
        assert hash_calls[0] <= 3

    def test_fresh_nonces_hash_like_the_reference(self, gkm, rng, hash_calls):
        rows = make_rows(rng, 5)
        memo = KevMemo()
        for _ in range(3):
            key, header = gkm.generate(rows, n_max=8, rng=rng)
            hash_calls[0] = 0
            assert gkm.derive(header, rows[1], memo) == key
            with_memo = hash_calls[0]
            hash_calls[0] = 0
            assert gkm.derive(header, rows[1]) == key
            assert with_memo == hash_calls[0]

    def test_zero_columns_filled_when_x_uses_them(self, rng):
        """A sparse X skips hashes; a later X over the same nonces that
        uses those columns gets them hashed, not read as zero."""
        gkm = AcvBgkm(FAST_FIELD)
        rows = make_rows(rng, 2)
        _, _, fact = gkm.generate_with_factorization(rows, n_max=12, rng=rng)
        memo = KevMemo()
        outsider = (b"outsider",)
        for _ in range(8):
            key, header = gkm.rekey_from_factorization(fact, rng=rng)
            assert 0 in header.x[1:]
            for css in rows + [outsider]:
                assert gkm.derive(header, css, memo) == gkm.derive(header, css)
            assert gkm.derive(header, rows[0], memo) == key

    @pytest.mark.parametrize(
        "header, match",
        [
            (AcvHeader(q=FAST_FIELD.p, x=(1,), zs=(b"aaaa", b"bbbb")), "arity"),
            (AcvHeader(q=0, x=(1, 2, 3), zs=(b"aaaa", b"bbbb")), "modulus"),
            (AcvHeader(q=1, x=(1, 2, 3), zs=(b"aaaa", b"bbbb")), "modulus"),
            (AcvHeader(q=FAST_FIELD.p, x=(5,), zs=()), "no nonces"),
        ],
    )
    def test_hostile_headers_fail_typed_with_and_without_memo(
        self, gkm, header, match
    ):
        memo = KevMemo()
        for path in (None, memo):
            with pytest.raises(KeyDerivationError, match=match):
                gkm.derive(header, [b"css"], path)
        assert len(memo) == 0

    def test_changed_later_nonce_is_not_reused(self, gkm, rng):
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, rng=rng)
        memo = KevMemo()
        assert gkm.derive(header, rows[0], memo) == key
        zs = list(header.zs)
        zs[-1] = bytes(b ^ 0xFF for b in zs[-1])
        forged = AcvHeader(q=header.q, x=header.x, zs=tuple(zs))
        # Also longer than the memoised tuple but not an extension of it.
        longer = AcvHeader(
            q=header.q, x=header.x + (7,), zs=forged.zs + (b"\x01" * 4,)
        )
        for other in (forged, longer):
            assert gkm.derive(header, rows[0], memo) == key
            assert other.zs[0] == header.zs[0]
            assert gkm.derive(other, rows[0], memo) == gkm.derive(other, rows[0])

    def test_changed_nonce_width_is_not_reused(self, gkm, rng):
        rows = make_rows(rng, 4)
        key, header = gkm.generate(rows, rng=rng, z_bytes=8)
        memo = KevMemo()
        assert gkm.derive(header, rows[0], memo) == key
        wider = AcvHeader(
            q=header.q, x=header.x, zs=tuple(z + b"\x00" for z in header.zs)
        )
        narrower = AcvHeader(
            q=header.q, x=header.x, zs=tuple(z[:4] for z in header.zs)
        )
        for forged in (wider, narrower, header):
            assert gkm.derive(forged, rows[0], memo) == gkm.derive(
                forged, rows[0]
            )

    def test_changed_modulus_is_not_reused(self, gkm, rng):
        rows = make_rows(rng, 3)
        key, header = gkm.generate(rows, rng=rng)
        memo = KevMemo()
        assert gkm.derive(header, rows[0], memo) == key
        other_q = AcvHeader(q=PAPER_FIELD.p, x=header.x, zs=header.zs)
        assert gkm.derive(other_q, rows[0], memo) == gkm.derive(other_q, rows[0])

    def test_memo_is_bound_to_the_hash_function(self, rng):
        fast, paper_hash = AcvBgkm(FAST_FIELD), AcvBgkm(FAST_FIELD, sha1)
        rows = make_rows(rng, 3)
        key, header = fast.generate(rows, rng=rng)
        memo = KevMemo()
        assert fast.derive(header, rows[0], memo) == key
        assert paper_hash.derive(header, rows[0], memo) == paper_hash.derive(
            header, rows[0]
        )

    def test_fresh_nonce_rekeys_keep_one_entry_per_slot(self, gkm, rng):
        rows = make_rows(rng, 3)
        memo = KevMemo()
        for _ in range(200):
            key, header = gkm.generate(rows, rng=rng)
            assert gkm.derive(header, rows[0], memo) == key
            assert gkm.derive(header, rows[1], memo, slot=1) == key
            assert len(memo) == 2
        memo.clear()
        assert len(memo) == 0
