"""Cryptographic primitives for the simulated deployment.

Real HMAC-SHA256 for integrity; access-control-faithful simulation for
confidentiality and signatures.  See module docstrings for the exact
fidelity model.
"""

from repro.crypto.keys import KeyError_, KeyRing, KeyStore
from repro.crypto.auth import (
    Mac, Signature, VERIFY_STATS, digest, forge_signature, mac_payload,
    reset_verify_stats, sign_payload, verify_mac, verify_signature,
)
from repro.crypto.seal import SealError, SealedPayload, seal
from repro.crypto.serialize import (
    ENCODE_STATS, FrozenViewMixin, UnserializableError,
    cache_enabled, canonical_bytes, canonical_cached, payload_bytes,
    reset_encode_stats, set_cache_enabled,
)

__all__ = [
    "KeyError_", "KeyRing", "KeyStore",
    "Mac", "Signature", "digest", "forge_signature", "mac_payload",
    "sign_payload", "verify_mac", "verify_signature",
    "SealError", "SealedPayload", "seal",
    "UnserializableError", "canonical_bytes",
    "FrozenViewMixin", "canonical_cached", "payload_bytes",
    "cache_enabled", "set_cache_enabled",
    "cache_stats", "reset_cache_stats", "publish_cache_metrics",
]

from repro.crypto.threshold import (
    PartialSignature, ThresholdError, ThresholdScheme, ThresholdShare,
    ThresholdSignature,
)

__all__ += [
    "PartialSignature", "ThresholdError", "ThresholdScheme",
    "ThresholdShare", "ThresholdSignature",
]


# ---------------------------------------------------------------------------
# Hot-path cache statistics
# ---------------------------------------------------------------------------
def cache_stats() -> dict:
    """Snapshot of the process-wide encode/verify cache counters."""
    encode = dict(ENCODE_STATS)
    verify = dict(VERIFY_STATS)
    return {
        "encode_hits": encode["hits"], "encode_misses": encode["misses"],
        "verify_hits": verify["hits"], "verify_misses": verify["misses"],
    }


def reset_cache_stats() -> None:
    """Zero the encode/verify cache counters (benchmark bookends)."""
    reset_encode_stats()
    reset_verify_stats()


def publish_cache_metrics(registry) -> None:
    """Mirror the cache counters into a telemetry ``MetricsRegistry``.

    The hot path keeps plain ints; this bridge syncs them into
    monotonic counters (``crypto.encode_cache.hits`` etc.) so tests and
    benchmarks read cache behaviour through the same telemetry path as
    every other metric.
    """
    stats = cache_stats()
    registry.sync_counter("crypto.encode_cache.hits",
                          stats["encode_hits"], component="crypto")
    registry.sync_counter("crypto.encode_cache.misses",
                          stats["encode_misses"], component="crypto")
    registry.sync_counter("crypto.verify_cache.hits",
                          stats["verify_hits"], component="crypto")
    registry.sync_counter("crypto.verify_cache.misses",
                          stats["verify_misses"], component="crypto")
