"""The Subscriber (Sub): tokens, CSS store, key derivation, decryption.

A Sub holds its identity tokens with their private openings ``(x, r)`` and
the CSSs it managed to extract during registration.  Receiving a broadcast
(Section V-C "Decryption Key Derivation"):

* for each subdocument, look at its configuration header;
* pick a member policy whose condition keys all have local CSSs;
* build the KEV from those CSSs and the published nonces and compute
  ``K = KEV . X`` (hashes of nonces already seen are reused from a
  private :class:`~repro.gkm.acv.KevMemo`);
* authenticated decryption confirms the key (a Sub that *thinks* it
  qualifies but holds a stale/garbage CSS just fails and tries the next
  policy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.documents.package import BroadcastPackage, ConfigHeader
from repro.errors import DecryptionError, RegistrationError
from repro.gkm.acv import AcvBgkm, KevMemo
from repro.gkm.buckets import BucketedHeader
from repro.ocbe.base import OCBESetup
from repro.system.identity import IdentityToken
from repro.system.publisher import RegistrationOffer, SystemParams

__all__ = ["Subscriber", "TokenWallet"]


@dataclass
class TokenWallet:
    """A token plus its private opening."""

    token: IdentityToken
    x: int
    r: int


class Subscriber:
    """A subscribing client."""

    def __init__(
        self,
        nym: str,
        params: SystemParams,
        rng: Optional[random.Random] = None,
    ):
        self.nym = nym
        self.params = params
        self._wallet: Dict[str, TokenWallet] = {}
        self.css_store: Dict[str, bytes] = {}
        self._gkm = AcvBgkm(params.gkm_field, params.hash_fn)
        #: KEV hashes of the headers last seen, shared by the dense path and
        #: the bucket scan; process-local, never persisted (see KevMemo).
        self._kev_memo = KevMemo()
        self._ocbe = OCBESetup(
            pedersen=params.pedersen,
            hash_fn=params.hash_fn,
            cipher=params.cipher,
            key_len=params.key_len,
        )
        self._rng = rng
        #: Optional durability hook (:mod:`repro.store.persist`): wallet
        #: entries and extracted CSSs announce themselves here so a crashed
        #: subscriber process resumes without re-running OCBE transfers.
        self.journal = None

    @property
    def rng(self) -> Optional[random.Random]:
        """The deterministic RNG this subscriber was built with (or None)."""
        return self._rng

    @property
    def ocbe_setup(self) -> OCBESetup:
        """The OCBE parameters shared with the publisher."""
        return self._ocbe

    # -- identity ------------------------------------------------------------

    def hold_token(self, token: IdentityToken, x: int, r: int) -> None:
        """Store a token and its opening received from the IdMgr."""
        if token.nym != self.nym:
            raise RegistrationError(
                "token pseudonym %r does not match subscriber %r"
                % (token.nym, self.nym)
            )
        self._wallet[token.tag] = TokenWallet(token=token, x=x, r=r)
        if self.journal is not None:
            self.journal.token_held(token, x, r)

    def store_css(self, condition_key: str, css: bytes) -> None:
        """Keep an extracted CSS (journaled when durability is attached).

        The registration sessions call this instead of poking
        :attr:`css_store` directly, so the write-ahead record is on disk
        before any later broadcast relies on the secret being held."""
        self.css_store[condition_key] = css
        self._kev_memo.clear()
        if self.journal is not None:
            self.journal.css_extracted(condition_key, css)

    def token_for(self, attribute: str) -> IdentityToken:
        """The held token for an attribute tag."""
        return self.wallet_for(attribute).token

    def wallet_for(self, attribute: str) -> TokenWallet:
        """The held token *with its private opening* for an attribute tag.

        Only this Sub's own registration sessions may call this; the
        opening never crosses the wire.
        """
        if attribute not in self._wallet:
            raise RegistrationError("no token for attribute %r" % attribute)
        return self._wallet[attribute]

    def attribute_tags(self) -> List[str]:
        """Tags of all held tokens."""
        return sorted(self._wallet)

    def wallet_entries(self) -> List[TokenWallet]:
        """Every held token with its opening, sorted by tag (the snapshot
        view; like :meth:`wallet_for`, never crosses the wire)."""
        return [self._wallet[tag] for tag in self.attribute_tags()]

    # -- registration (receiver side of Section V-B) ----------------------------

    def accept_offer(self, offer: RegistrationOffer) -> bool:
        """Deprecated live-object registration path.

        The in-process offer/accept handshake was replaced by the wire
        protocol: registration now runs as serialized messages through
        :class:`~repro.wire.sessions.SubscriberRegistrationSession` (or the
        high-level :class:`~repro.system.service.SubscriberClient`), and the
        compatibility helpers ``repro.system.registration.register_for_attribute``
        / ``register_all_attributes`` drive that for you.
        """
        raise RegistrationError(
            "Subscriber.accept_offer() is deprecated: registration is now a "
            "wire protocol.  Use repro.system.service.SubscriberClient / "
            "DisseminationService (or the register_for_attribute / "
            "register_all_attributes helpers) instead."
        )

    # -- broadcast consumption ---------------------------------------------------

    def _derive_config_key(self, header: ConfigHeader, position: int) -> List[bytes]:
        """Candidate symmetric keys for a configuration, one per satisfiable
        policy (most Subs satisfy at most one).  ``position`` is the
        header's index in its package: with the bucket index it names the
        memo slot, so configurations sharing a CSS tuple keep apart.

        A bucketed header yields one candidate per bucket: the Sub does
        not learn its bucket index (publishing an assignment would leak
        membership structure), so it derives from every bucket and lets
        authenticated decryption pick the real key -- wrong buckets
        produce unpredictable field elements, exactly like a stale CSS.
        """
        if header.acv is None:
            return []
        buckets = (
            header.acv.buckets
            if isinstance(header.acv, BucketedHeader)
            else (header.acv,)
        )
        candidates = []
        for condition_keys in header.policies:
            if all(key in self.css_store for key in condition_keys):
                css = tuple(self.css_store[key] for key in condition_keys)
                candidates.extend(
                    self._gkm.export_key(
                        self._gkm.derive(
                            bucket, css, self._kev_memo, (position, index)
                        ),
                        self.params.key_len,
                    )
                    for index, bucket in enumerate(buckets)
                )
        return candidates

    def receive(self, package: BroadcastPackage) -> Dict[str, bytes]:
        """Decrypt every subdocument this Sub is authorized for.

        Returns ``{subdocument name: plaintext}``; unauthorized portions
        are simply absent (their ciphertexts are indistinguishable from
        random without the key).
        """
        keys_by_config: Dict[str, List[bytes]] = {}
        for position, header in enumerate(package.headers):
            keys_by_config[header.config_id] = self._derive_config_key(
                header, position
            )
        plaintexts: Dict[str, bytes] = {}
        for sub in package.subdocuments:
            for key in keys_by_config.get(sub.config_id, []):
                try:
                    plaintexts[sub.name] = self.params.cipher.decrypt(
                        key, sub.ciphertext
                    )
                    break
                except DecryptionError:
                    continue
        return plaintexts

    def __repr__(self) -> str:
        return "Subscriber(nym=%r, tokens=%d, css=%d)" % (
            self.nym,
            len(self._wallet),
            len(self.css_store),
        )
