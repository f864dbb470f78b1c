"""Threshold signatures (k-of-n), simulation-faithful.

The deployed Spire uses threshold cryptography so that a proxy or HMI
can verify a *single* combined signature proving that ``k`` replicas
agreed on a message, instead of collecting and verifying k individual
signatures.  This module models the scheme's interface and security
properties:

* each replica holds a **key share**; a share produces a *partial
  signature* over a payload;
* any ``k`` distinct valid partials for the same payload **combine**
  into a :class:`ThresholdSignature` that verifies against the group's
  public identity;
* fewer than ``k`` partials cannot produce a valid combined signature,
  and partials from outside the share set are rejected.

As with the rest of ``repro.crypto``, tags are real HMACs so payload
tampering is detected; the unforgeability of shares follows from key
possession rather than RSA mathematics.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from hmac import compare_digest
from typing import Any, Dict, Iterable, List, Optional

from repro.crypto.auth import _tag
from repro.crypto.serialize import payload_bytes
from repro.util.rng import DeterministicRng


class ThresholdError(Exception):
    """Raised for combination failures (too few / invalid partials)."""


@dataclass(frozen=True)
class PartialSignature:
    group: str
    share_holder: str
    tag: bytes


@dataclass(frozen=True)
class ThresholdSignature:
    group: str
    signers: tuple          # sorted share-holder names (k of them)
    tag: bytes


class ThresholdScheme:
    """One k-of-n signing group.

    Args:
        group: group name (e.g. ``"spire-masters"``).
        holders: the n share holders (replica names).
        threshold: k, the number of partials needed.
        rng: randomness for share material.
    """

    def __init__(self, group: str, holders: Iterable[str], threshold: int,
                 rng: Optional[DeterministicRng] = None):
        holders = list(holders)
        if threshold < 1 or threshold > len(holders):
            raise ValueError(f"threshold {threshold} out of range for "
                             f"{len(holders)} holders")
        rng = rng or DeterministicRng(0, f"threshold/{group}")
        self.group = group
        self.threshold = threshold
        self.holders = list(holders)
        self._shares: Dict[str, bytes] = {
            holder: hashlib.sha256(
                f"{group}/{holder}".encode() + rng.bytes(32)).digest()
            for holder in holders}
        self._group_secret = hashlib.sha256(
            group.encode() + rng.bytes(32)).digest()

    # -- share side ------------------------------------------------------
    def share_for(self, holder: str) -> "ThresholdShare":
        if holder not in self._shares:
            raise ThresholdError(f"{holder} holds no share of {self.group}")
        return ThresholdShare(self, holder, self._shares[holder])

    def _partial_tag(self, holder: str, payload: Any) -> bytes:
        return _tag(self._shares[holder], payload)

    # -- combination / verification ---------------------------------------
    def combine(self, partials: List[PartialSignature],
                payload: Any) -> ThresholdSignature:
        """Combine ``k`` valid, distinct partials into a group signature."""
        valid: Dict[str, PartialSignature] = {}
        for partial in partials:
            if partial.group != self.group:
                continue
            if partial.share_holder not in self._shares:
                continue
            if not isinstance(partial.tag, bytes):
                continue
            expected = self._partial_tag(partial.share_holder, payload)
            if compare_digest(expected, partial.tag):
                valid[partial.share_holder] = partial
        if len(valid) < self.threshold:
            raise ThresholdError(
                f"only {len(valid)} valid partials; need {self.threshold}")
        signers = tuple(sorted(valid)[:self.threshold])
        tag = self._combined_tag(signers, payload)
        return ThresholdSignature(group=self.group, signers=signers, tag=tag)

    def _combined_tag(self, signers: tuple, payload: Any) -> bytes:
        return _tag(self._group_secret,
                    {"signers": list(signers),
                     "payload": payload_bytes(payload)})

    def verify(self, signature: ThresholdSignature, payload: Any) -> bool:
        """Anyone can verify a combined signature (public operation)."""
        if signature.group != self.group:
            return False
        if len(set(signature.signers)) < self.threshold:
            return False
        if any(s not in self._shares for s in signature.signers):
            return False
        if not isinstance(signature.tag, bytes):
            return False
        expected = self._combined_tag(tuple(sorted(signature.signers)),
                                      payload)
        return compare_digest(expected, signature.tag)


class ThresholdShare:
    """One holder's share: can produce partial signatures only."""

    def __init__(self, scheme: ThresholdScheme, holder: str, material: bytes):
        self._scheme = scheme
        self.holder = holder
        self._material = material

    def sign_partial(self, payload: Any) -> PartialSignature:
        return PartialSignature(group=self._scheme.group,
                                share_holder=self.holder,
                                tag=_tag(self._material, payload))
