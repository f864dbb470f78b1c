"""Key management for the simulated deployment.

A :class:`KeyStore` is the trust root of one deployment: it mints
symmetric group keys (Spines link/network keys) and per-principal
signing keys (Prime replicas, proxies, HMI).  Components hold a
:class:`KeyRing` — the subset of key material installed on their host.

The simulation invariant enforced throughout: *an attacker who has not
compromised a host holding a key cannot authenticate, decrypt, or forge
under that key.*  Compromising a host (red-team excursion) yields its
key ring, exactly as stealing key files from disk would.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

from repro.util.rng import DeterministicRng


class KeyError_(Exception):
    """Raised for unknown keys or principals (named to avoid builtins clash)."""


class KeyStore:
    """Deployment-wide key authority.

    Symmetric keys are identified by a string key id (e.g.
    ``"spines.internal"``); signing keys by principal name.  Key material
    is real bytes so MACs computed over it are real HMACs.
    """

    def __init__(self, rng: Optional[DeterministicRng] = None):
        self._rng = rng or DeterministicRng(0, "keystore")
        self._symmetric: Dict[str, bytes] = {}
        self._signing: Dict[str, bytes] = {}

    def _mint(self, tag: bytes, name: str) -> bytes:
        return hashlib.sha256(tag + name.encode() + self._rng.bytes(32)).digest()

    # -- symmetric group keys ------------------------------------------
    def create_symmetric(self, key_id: str) -> bytes:
        if key_id in self._symmetric:
            raise KeyError_(f"symmetric key {key_id!r} already exists")
        material = self._mint(b"sym:", key_id)
        self._symmetric[key_id] = material
        return material

    def symmetric(self, key_id: str) -> bytes:
        try:
            return self._symmetric[key_id]
        except KeyError:
            raise KeyError_(f"unknown symmetric key {key_id!r}") from None

    def has_symmetric(self, key_id: str) -> bool:
        return key_id in self._symmetric

    # -- signing keys --------------------------------------------------
    def create_signing(self, principal: str) -> bytes:
        if principal in self._signing:
            raise KeyError_(f"signing key for {principal!r} already exists")
        material = self._mint(b"sig:", principal)
        self._signing[principal] = material
        return material

    def signing(self, principal: str) -> bytes:
        try:
            return self._signing[principal]
        except KeyError:
            raise KeyError_(f"unknown signing key for {principal!r}") from None

    def principals(self) -> Iterable[str]:
        return self._signing.keys()

    # -- provisioning ---------------------------------------------------
    def ring_for(self, symmetric_ids: Iterable[str] = (),
                 signing_principals: Iterable[str] = ()) -> "KeyRing":
        """Build the key ring installed on one host."""
        ring = KeyRing(verifier=self)
        for key_id in symmetric_ids:
            ring.install_symmetric(key_id, self.symmetric(key_id))
        for principal in signing_principals:
            ring.install_signing(principal, self.signing(principal))
        return ring


class KeyRing:
    """Key material held by one component/host.

    ``verifier`` points back at the deployment :class:`KeyStore` used as
    the public-key registry for signature *verification* (verification
    needs no secret in a real PKI; the simulation mirrors that by
    letting any ring verify any principal's signature while only rings
    holding the signing key can *create* one).
    """

    def __init__(self, verifier: Optional[KeyStore] = None):
        self._symmetric: Dict[str, bytes] = {}
        self._signing: Dict[str, bytes] = {}
        self._verifier = verifier
        # Per-principal verification memo managed by repro.crypto.auth;
        # any change to the ring's key material invalidates it.
        self._verify_cache: Dict[str, object] = {}

    def __getstate__(self) -> dict:
        """Everything but the verification memo: it is a cache that
        grows with run length (a third of a town5 snapshot after 36
        sim-s), and a restored ring refills it as messages arrive."""
        state = self.__dict__.copy()
        state["_verify_cache"] = {}
        return state

    # -- contents -------------------------------------------------------
    def install_symmetric(self, key_id: str, material: bytes) -> None:
        self._symmetric[key_id] = material
        self._verify_cache.clear()

    def install_signing(self, principal: str, material: bytes) -> None:
        self._signing[principal] = material
        self._verify_cache.clear()

    def has_symmetric(self, key_id: str) -> bool:
        return key_id in self._symmetric

    def can_sign_as(self, principal: str) -> bool:
        return principal in self._signing

    def symmetric(self, key_id: str) -> bytes:
        try:
            return self._symmetric[key_id]
        except KeyError:
            raise KeyError_(f"key ring does not hold symmetric key {key_id!r}") from None

    def signing(self, principal: str) -> bytes:
        try:
            return self._signing[principal]
        except KeyError:
            raise KeyError_(f"key ring cannot sign as {principal!r}") from None

    def verification_key(self, principal: str) -> bytes:
        """Public-registry lookup used to verify signatures."""
        if self._verifier is None:
            raise KeyError_("key ring has no verification registry")
        return self._verifier.signing(principal)

    # -- compromise model -------------------------------------------------
    def clone(self) -> "KeyRing":
        """Copy the ring — what an attacker obtains by compromising the host."""
        ring = KeyRing(verifier=self._verifier)
        ring._symmetric = dict(self._symmetric)
        ring._signing = dict(self._signing)
        return ring

    def merge(self, other: "KeyRing") -> None:
        """Absorb another ring's material (attacker accumulating loot)."""
        self._symmetric.update(other._symmetric)
        self._signing.update(other._signing)
        if self._verifier is None:
            self._verifier = other._verifier
        self._verify_cache.clear()
