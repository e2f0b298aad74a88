"""Failure injection: corrupted state and hostile inputs must degrade to
"no access", never to crashes or wrong plaintexts."""

import random

import pytest

from repro.documents.package import BroadcastPackage, EncryptedSubdocument
from repro.workloads.ehr import build_hospital


@pytest.fixture(scope="module")
def hospital():
    return build_hospital(rng=random.Random(55))


class TestCorruptedSubscriberState:
    def test_corrupted_css_yields_no_access(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        carol = hospital.subscribers["carol"]
        saved = dict(carol.css_store)
        try:
            carol.css_store["role = doc"] = b"\x00" * 16  # corrupted
            got = carol.receive(package)
            assert got == {}  # authenticated decryption catches it
        finally:
            carol.css_store.clear()
            carol.css_store.update(saved)

    def test_missing_css_for_one_condition(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        dave = hospital.subscribers["dave"]
        saved = dict(dave.css_store)
        try:
            # Dave loses his level CSS locally: acp4 becomes underivable,
            # nothing else breaks.
            del dave.css_store["level >= 59"]
            got = dave.receive(package)
            assert got == {}  # dave only qualified through acp4
        finally:
            dave.css_store.clear()
            dave.css_store.update(saved)

    def test_swapped_css_between_conditions(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        dave = hospital.subscribers["dave"]
        saved = dict(dave.css_store)
        try:
            a = dave.css_store["role = nur"]
            b = dave.css_store["level >= 59"]
            dave.css_store["role = nur"], dave.css_store["level >= 59"] = b, a
            assert dave.receive(package) == {}
        finally:
            dave.css_store.clear()
            dave.css_store.update(saved)


    def test_direct_css_write_cannot_serve_a_memoised_key(self, hospital):
        # Derivation memoises KEV hashes keyed on the CSS bytes: a direct
        # css_store write (bypassing store_css) changes the key, so the
        # warm memo cannot hand back the old credential's hashes.
        package = hospital.publisher.publish(hospital.document)
        carol = hospital.subscribers["carol"]
        entitled = carol.receive(package)
        assert entitled
        saved = dict(carol.css_store)
        try:
            carol.css_store["role = doc"] = b"\x00" * 16
            assert carol.receive(package) == {}
        finally:
            carol.css_store.clear()
            carol.css_store.update(saved)
        assert carol.receive(package) == entitled


class TestTamperedBroadcast:
    def test_tampered_ciphertext_rejected(self, hospital):
        package = hospital.publisher.publish(hospital.document)
        tampered_subs = []
        for sub in package.subdocuments:
            flipped = bytearray(sub.ciphertext)
            flipped[len(flipped) // 2] ^= 0xFF
            tampered_subs.append(
                EncryptedSubdocument(
                    name=sub.name,
                    config_id=sub.config_id,
                    ciphertext=bytes(flipped),
                )
            )
        tampered = BroadcastPackage(
            document=package.document,
            headers=package.headers,
            subdocuments=tuple(tampered_subs),
        )
        for sub in hospital.subscribers.values():
            assert sub.receive(tampered) == {}

    def test_headers_swapped_between_configs(self, hospital):
        """Pointing subdocuments at the wrong configuration key fails
        authentication rather than decrypting junk."""
        package = hospital.publisher.publish(hospital.document)
        non_empty = [h for h in package.headers if h.acv is not None]
        if len(non_empty) < 2:
            pytest.skip("need two configurations")
        remap = {
            non_empty[0].config_id: non_empty[1].config_id,
            non_empty[1].config_id: non_empty[0].config_id,
        }
        swapped = BroadcastPackage(
            document=package.document,
            headers=package.headers,
            subdocuments=tuple(
                EncryptedSubdocument(
                    name=sub.name,
                    config_id=remap.get(sub.config_id, sub.config_id),
                    ciphertext=sub.ciphertext,
                )
                for sub in package.subdocuments
            ),
        )
        carol = hospital.subscribers["carol"]
        correct = carol.receive(package)
        confused = carol.receive(swapped)
        for name, plaintext in confused.items():
            assert plaintext == hospital.document.get(name).content
        assert set(confused) <= set(correct)

    def test_empty_package(self, hospital):
        empty = BroadcastPackage(document="x", headers=(), subdocuments=())
        for sub in hospital.subscribers.values():
            assert sub.receive(empty) == {}


class TestPublishOptions:
    def test_explicit_capacity(self, hospital):
        package = hospital.publisher.publish(hospital.document, capacity=40)
        for header in package.headers:
            if header.acv is not None:
                assert header.acv.capacity == 40
        carol = hospital.subscribers["carol"]
        assert "Medication" in carol.receive(package)

    def test_capacity_too_small_raises(self, hospital):
        from repro.errors import CapacityError

        with pytest.raises(CapacityError):
            hospital.publisher.publish(hospital.document, capacity=1)
