"""The broadcast package: what the Pub actually transmits (Section V-C).

For every policy configuration the package carries a :class:`ConfigHeader`
with

* the ordered condition-key lists of the member policies (public -- the
  paper's ACPs are known to subscribers so they can pick "an access control
  policy acp_k it satisfies"), and
* the ACV-BGKM header ``(X, z_1..z_N)``; the empty configuration carries no
  header at all ("the Pub can just encrypt ... without the need of
  publishing X or z_i", Example 4).

plus each subdocument encrypted (authenticated) under its configuration's
key.  The whole package serializes to a single byte string; subscribers
need nothing else besides their CSSs.

Decoding shares the identifier strings (document, configuration id,
condition keys, subdocument names) through :func:`_shared_name`: every
receiver of a broadcast then holds one copy of each name instead of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError
from repro.gkm.strategy import KeyingHeader, decode_keying_header
from repro.wire.codec import (
    Cursor,
    pack_bytes as _pack_bytes,
    pack_str as _pack_str,
    pack_u16 as _pack_u16,
)

__all__ = ["ConfigHeader", "EncryptedSubdocument", "BroadcastPackage"]

_MAGIC = b"BPK1"

#: Distinct names :func:`_shared_name` keeps before starting over.
_SHARED_NAMES_MAX = 4096
_shared_names: Dict[str, str] = {}


def _shared_name(name: str) -> str:
    """The process-wide copy of a decoded identifier.

    Unlike ``sys.intern`` (whose strings are immortal on some CPython
    versions), the table is bounded, so names from hostile packages
    cannot pile up.
    """
    if len(_shared_names) >= _SHARED_NAMES_MAX:
        _shared_names.clear()
    return _shared_names.setdefault(name, name)


@dataclass(frozen=True)
class ConfigHeader:
    """Public keying material for one policy configuration.

    ``acv`` is either a dense :class:`~repro.gkm.acv.AcvHeader` or a
    :class:`~repro.gkm.buckets.BucketedHeader` (one ACV per row-order
    bucket, shared key) -- receivers dispatch on the serialized magic
    tag, so dense and bucketed publishers interoperate transparently.
    """

    config_id: str
    policies: Tuple[Tuple[str, ...], ...]  # ordered condition keys per policy
    acv: Optional[KeyingHeader]

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _pack_str(self.config_id)
        out += _pack_u16(len(self.policies))
        for policy in self.policies:
            out += _pack_u16(len(policy))
            for key in policy:
                out += _pack_str(key)
        if self.acv is None:
            out += _pack_bytes(b"")
        else:
            out += _pack_bytes(self.acv.to_bytes())
        return bytes(out)

    @classmethod
    def from_bytes_at(cls, data: bytes, offset: int) -> Tuple["ConfigHeader", int]:
        cursor = Cursor(data, offset)
        config_id = _shared_name(cursor.read_str())
        n_policies = cursor.read_u16()
        policies: List[Tuple[str, ...]] = []
        for _ in range(n_policies):
            n_conds = cursor.read_u16()
            policies.append(
                tuple(_shared_name(cursor.read_str()) for _ in range(n_conds))
            )
        acv_raw = cursor.read_bytes()
        acv = decode_keying_header(acv_raw) if acv_raw else None
        return (
            cls(config_id=config_id, policies=tuple(policies), acv=acv),
            cursor.offset,
        )

    def byte_size(self) -> int:
        return len(self.to_bytes())


@dataclass(frozen=True)
class EncryptedSubdocument:
    """One subdocument ciphertext, tagged with its configuration."""

    name: str
    config_id: str
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return _pack_str(self.name) + _pack_str(self.config_id) + _pack_bytes(
            self.ciphertext
        )

    @classmethod
    def from_bytes_at(
        cls, data: bytes, offset: int
    ) -> Tuple["EncryptedSubdocument", int]:
        cursor = Cursor(data, offset)
        name = _shared_name(cursor.read_str())
        config_id = _shared_name(cursor.read_str())
        ciphertext = cursor.read_bytes()
        return cls(name=name, config_id=config_id, ciphertext=ciphertext), cursor.offset


@dataclass(frozen=True)
class BroadcastPackage:
    """A complete encrypted document broadcast."""

    document: str
    headers: Tuple[ConfigHeader, ...]
    subdocuments: Tuple[EncryptedSubdocument, ...]

    def to_bytes(self) -> bytes:
        out = bytearray(_MAGIC)
        out += _pack_str(self.document)
        out += _pack_u16(len(self.headers))
        for header in self.headers:
            out += _pack_bytes(header.to_bytes())
        out += _pack_u16(len(self.subdocuments))
        for sub in self.subdocuments:
            out += sub.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BroadcastPackage":
        cursor = Cursor(data)
        if cursor.take(4) != _MAGIC:
            raise SerializationError("bad magic")
        document = _shared_name(cursor.read_str())
        n_headers = cursor.read_u16()
        headers = []
        for _ in range(n_headers):
            raw = cursor.read_bytes()
            header, end = ConfigHeader.from_bytes_at(raw, 0)
            if end != len(raw):
                raise SerializationError("trailing bytes inside config header")
            headers.append(header)
        n_subs = cursor.read_u16()
        subs = []
        for _ in range(n_subs):
            sub, cursor.offset = EncryptedSubdocument.from_bytes_at(
                cursor.data, cursor.offset
            )
            subs.append(sub)
        cursor.expect_end()  # canonical encodings only: reject trailing bytes
        return cls(
            document=document,
            headers=tuple(headers),
            subdocuments=tuple(subs),
        )

    def header_for(self, config_id: str) -> ConfigHeader:
        """Look up a configuration header by id."""
        for header in self.headers:
            if header.config_id == config_id:
                return header
        raise SerializationError("no header for configuration %r" % config_id)

    def byte_size(self) -> int:
        """Total wire size."""
        return len(self.to_bytes())

    def header_overhead(self) -> int:
        """Bytes spent on keying headers (the paper's bandwidth overhead)."""
        return sum(h.byte_size() for h in self.headers)
