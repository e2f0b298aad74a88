"""Tests for hash functions and hash-to-field helpers."""

import hashlib
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashes import (
    _REGISTRY,
    PureSha1,
    PureSha256,
    default_hash,
    expand_message,
    hash_concat,
    hash_to_int,
    hash_to_range,
    pure_sha1,
    pure_sha256,
    sha1,
    sha256,
)
from repro.errors import InvalidParameterError


class TestPureImplementations:
    """The from-scratch SHA implementations agree with hashlib."""

    KNOWN_SHA256 = [
        (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    ]
    KNOWN_SHA1 = [
        (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    ]

    @pytest.mark.parametrize("data,expected", KNOWN_SHA256)
    def test_sha256_known_answers(self, data, expected):
        assert PureSha256.hash(data).hex() == expected

    @pytest.mark.parametrize("data,expected", KNOWN_SHA1)
    def test_sha1_known_answers(self, data, expected):
        assert PureSha1.hash(data).hex() == expected

    @given(st.binary(max_size=300))
    def test_sha256_matches_hashlib(self, data):
        assert PureSha256.hash(data) == hashlib.sha256(data).digest()

    @given(st.binary(max_size=300))
    def test_sha1_matches_hashlib(self, data):
        assert PureSha1.hash(data) == hashlib.sha1(data).digest()

    @pytest.mark.parametrize("n", [55, 56, 63, 64, 65, 119, 120, 128])
    def test_padding_boundaries(self, n):
        """Lengths around the 64-byte block boundary exercise padding."""
        data = bytes(range(256))[:n] * 1
        assert PureSha256.hash(data) == hashlib.sha256(data).digest()
        assert PureSha1.hash(data) == hashlib.sha1(data).digest()

    def test_instances_consistent(self):
        data = b"cross-check"
        assert sha256.digest(data) == pure_sha256.digest(data)
        assert sha1.digest(data) == pure_sha1.digest(data)

    def test_metadata(self):
        assert sha256.digest_size == 32
        assert sha1.digest_size == 20
        assert sha256.block_size == 64
        assert default_hash().name == "sha256"
        assert sha256.hexdigest(b"abc") == hashlib.sha256(b"abc").hexdigest()


class TestExpandAndRange:
    def test_expand_lengths(self):
        h = default_hash()
        for n in (0, 1, 31, 32, 33, 100):
            assert len(expand_message(h, b"seed", n)) == n

    def test_expand_deterministic_prefix(self):
        h = default_hash()
        long = expand_message(h, b"seed", 100)
        short = expand_message(h, b"seed", 40)
        assert long[:40] == short

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_expand_matches_length_summing_loop(self, name):
        """The block count computed up front gives the bytes of the loop
        that re-summed block lengths until it had ``out_len``."""

        def summing_loop(h, data, out_len):
            blocks = []
            counter = 0
            while sum(len(b) for b in blocks) < out_len:
                blocks.append(h.digest(struct.pack(">I", counter) + data))
                counter += 1
            return b"".join(blocks)[:out_len]

        h = _REGISTRY[name]
        for out_len in range(201):
            assert expand_message(h, b"seed", out_len) == summing_loop(
                h, b"seed", out_len
            )

    def test_expand_negative(self):
        with pytest.raises(InvalidParameterError):
            expand_message(default_hash(), b"x", -1)

    @given(st.binary(max_size=64), st.integers(1, 512))
    def test_hash_to_int_bits(self, data, bits):
        value = hash_to_int(default_hash(), data, bits)
        assert 0 <= value < (1 << bits)

    @given(st.binary(max_size=64))
    def test_hash_to_range_bounds(self, data):
        for modulus in (2, 17, 10007, 2**80):
            value = hash_to_range(default_hash(), data, modulus)
            assert 0 <= value < modulus

    def test_hash_to_range_rejects_tiny_modulus(self):
        with pytest.raises(InvalidParameterError):
            hash_to_range(default_hash(), b"x", 1)

    def test_hash_to_range_spreads(self):
        """Different inputs should land on different values (whp)."""
        h = default_hash()
        values = {hash_to_range(h, bytes([i]), 2**80) for i in range(64)}
        assert len(values) == 64


class TestHashConcat:
    """The canonical concatenation hash of the GKM scheme (Eq. 2)."""

    def test_deterministic(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"r1", b"r2", b"z"], q) == hash_concat(
            h, [b"r1", b"r2", b"z"], q
        )

    def test_no_concatenation_ambiguity(self):
        """('ab','c') and ('a','bc') must hash differently -- the property
        plain || concatenation would violate."""
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"ab", b"c"], q) != hash_concat(h, [b"a", b"bc"], q)

    def test_order_matters(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"x", b"y"], q) != hash_concat(h, [b"y", b"x"], q)

    def test_empty_parts_distinct(self):
        h = default_hash()
        q = 2**80
        assert hash_concat(h, [b"", b"x"], q) != hash_concat(h, [b"x", b""], q)

    @given(
        st.lists(st.binary(max_size=16), min_size=1, max_size=4),
        st.lists(st.binary(max_size=16), min_size=1, max_size=4),
    )
    def test_injective_whp(self, parts_a, parts_b):
        h = default_hash()
        q = PRIME_80 = 604462909807314587353111
        if parts_a != parts_b:
            assert hash_concat(h, parts_a, q) != hash_concat(h, parts_b, q)
        else:
            assert hash_concat(h, parts_a, q) == hash_concat(h, parts_b, q)
