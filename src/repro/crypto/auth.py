"""Message authentication: HMACs and simulated digital signatures.

Both primitives compute real HMAC-SHA256 tags over the canonical
serialization of the payload, so tampering with any field is detected.
Signatures use the signer's per-principal key; any component can verify
through the deployment's public registry (see
:class:`~repro.crypto.keys.KeyRing`), which models standard PKI without
implementing RSA.

Hot-path memoisation
--------------------
In a 3f+2k+1 deployment the *same* signature over the *same* immutable
message is verified by every replica (and, for flooded overlay traffic,
by every daemon).  ``verify_signature`` therefore keeps a bounded LRU of
``(signer, tag, payload_digest) -> bool`` verdicts per
:class:`~repro.crypto.keys.KeyRing`.  The cache is partitioned per
principal, so a compromised replica spamming garbage signatures can
only churn its own partition — verdicts for correct principals are
untouched, and a cached success can never leak to a tampered payload
because the payload digest is part of the key.  Payloads whose digest
is itself cached (``FrozenViewMixin`` messages) make a repeat
verification a pure dict hit.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from hmac import compare_digest
from typing import Any, Dict, Tuple

from repro.crypto.keys import KeyError_, KeyRing
from repro.crypto.serialize import (
    FrozenViewMixin, cache_enabled, canonical_cached, payload_bytes,
    payload_digest,
)

# Per-principal LRU bound.  SCADA-scale runs have a handful of in-flight
# messages per principal; the bound only matters under red-team spam.
VERIFY_CACHE_SIZE = 1024

#: Process-wide verification-cache statistics (plain ints on the hot
#: path; see ``repro.crypto.publish_cache_metrics``).
VERIFY_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def reset_verify_stats() -> None:
    VERIFY_STATS["hits"] = 0
    VERIFY_STATS["misses"] = 0


# ---------------------------------------------------------------------------
# HMAC-SHA256 from per-key pad contexts
# ---------------------------------------------------------------------------
# HMAC(K, m) = H((K' ^ opad) || H((K' ^ ipad) || m)) with K' the key
# zero-padded (hashed first when longer) to the 64-byte SHA-256 block.
# Both pad blocks depend on the key alone, so each key's two contexts
# are hashed once and a tag is ``copy()`` + ``update()`` on them: the
# two compressions the message needs and none of ``hmac.new()``'s
# per-call set-up.  Hash contexts do not pickle, hence a module-level
# memo keyed by key bytes rather than state on a ``KeyRing`` (which
# snapshots reach).  A run holds one key per principal and per overlay;
# the bound only matters to a process that builds many worlds.
_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
PAD_MEMO_SIZE = 1024
_pads: Dict[bytes, Tuple[Any, Any]] = {}


def _key_pads(key: bytes) -> Tuple[Any, Any]:
    block = hashlib.sha256(key).digest() if len(key) > _BLOCK else key
    block = block.ljust(_BLOCK, b"\0")
    pads = (hashlib.sha256(block.translate(_IPAD)),
            hashlib.sha256(block.translate(_OPAD)))
    if len(_pads) >= PAD_MEMO_SIZE:
        del _pads[next(iter(_pads))]
    _pads[key] = pads
    return pads


def _tag(key: bytes, payload: Any) -> bytes:
    """HMAC-SHA256 of ``payload_bytes(payload)`` under ``key``."""
    pads = _pads.get(key)
    if pads is None:
        pads = _key_pads(key)
    inner = pads[0].copy()
    inner.update(payload.view_bytes() if isinstance(payload, FrozenViewMixin)
                 else canonical_cached(payload))
    outer = pads[1].copy()
    outer.update(inner.digest())
    return outer.digest()


def digest(payload: Any) -> bytes:
    """Collision-resistant digest of a payload (for checkpoints etc.)."""
    return hashlib.sha256(payload_bytes(payload)).digest()


@dataclass(frozen=True)
class Mac:
    """An HMAC tag under a named symmetric key."""

    key_id: str
    tag: bytes


def mac_payload(ring: KeyRing, key_id: str, payload: Any) -> Mac:
    """Authenticate ``payload`` under symmetric key ``key_id``."""
    return Mac(key_id, _tag(ring.symmetric(key_id), payload))


def verify_mac(ring: KeyRing, mac: Mac, payload: Any) -> bool:
    """Check an HMAC tag; False on wrong key, missing key, tampering, or
    a tag that is not ``bytes`` at all (an injected frame can carry
    anything)."""
    try:
        key = ring.symmetric(mac.key_id)
    except KeyError_:
        return False
    tag = mac.tag
    if not isinstance(tag, bytes):
        return False
    return compare_digest(_tag(key, payload), tag)


@dataclass(frozen=True)
class Signature:
    """A signature by ``signer`` over a payload."""

    signer: str
    tag: bytes


def sign_payload(ring: KeyRing, signer: str, payload: Any) -> Signature:
    """Sign ``payload`` as ``signer`` (requires the signing key)."""
    return Signature(signer, _tag(ring.signing(signer), payload))


def verify_signature(ring: KeyRing, signature: Signature, payload: Any) -> bool:
    """Verify against the public registry; False for forgery/tampering
    and for a tag that is not ``bytes`` (never memoised: it need not
    even be hashable).

    Repeat verifications of the same (signer, tag, payload) triple on
    the same ring are answered from a bounded per-principal LRU; see the
    module docstring for why this cannot weaken detection.
    """
    signer = signature.signer
    tag = signature.tag
    try:
        key = ring.verification_key(signer)
    except KeyError_:
        return False
    if not isinstance(tag, bytes):
        return False
    if not cache_enabled():
        return compare_digest(_tag(key, payload), tag)
    cache = ring._verify_cache.get(signer)
    if cache is None:
        cache = ring._verify_cache[signer] = OrderedDict()
    cache_key = (tag, payload.view_digest()
                 if isinstance(payload, FrozenViewMixin)
                 else payload_digest(payload))
    verdict = cache.get(cache_key)
    if verdict is not None:
        cache.move_to_end(cache_key)
        VERIFY_STATS["hits"] += 1
        return verdict
    VERIFY_STATS["misses"] += 1
    verdict = compare_digest(_tag(key, payload), tag)
    cache[cache_key] = verdict
    if len(cache) > VERIFY_CACHE_SIZE:
        cache.popitem(last=False)
    return verdict


def forge_signature(signer: str) -> Signature:
    """Build a garbage signature — what an attacker without the key can do.

    Provided so attack code is explicit about attempting forgery; it
    never verifies.
    """
    return Signature(signer=signer, tag=b"\x00" * 32)
