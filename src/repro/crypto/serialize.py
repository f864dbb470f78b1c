"""Canonical serialization for authentication, with encode-once caching.

MACs and signatures must be computed over a stable byte encoding of
message contents.  ``canonical_bytes`` encodes the JSON-ish value space
used by protocol messages (None, bool, int, float, str, bytes, and
lists/tuples/dicts thereof, plus dataclasses) deterministically:
dict entries are sorted by the canonical encoding of their keys (type
tag first, then encoded bytes), and every value is tagged with its type
so that e.g. ``1`` and ``"1"`` encode differently *and* sort apart.
The encoder is one ``type -> function`` table (:class:`_EncoderTable`):
an exact builtin is one lookup, and a subclass or dataclass is resolved
through its MRO the first time it is seen and memoised.  The byte
format is known to this module alone.

Hot-path caching
----------------
Serialization is the dominant cost of the simulated crypto: a broadcast
message is signed once but re-encoded for the digest and again at every
one of the 3f+2k+1 verifying replicas.  Protocol messages follow a
*sign-then-freeze* convention — the fields covered by a signature are
never mutated after the message is built — so the canonical encoding of
a given message object can be computed once and reused for its entire
lifetime, keyed on object identity with no invalidation logic:

* :func:`canonical_cached` memoises ``canonical_bytes`` on the value
  object itself (objects that cannot hold attributes, e.g. plain dicts,
  silently fall back to a fresh encoding);
* :class:`FrozenViewMixin` gives protocol messages cached
  ``view_bytes()`` / ``view_digest()`` over their ``signed_view()``,
  whose fixed keys are encoded and sorted once per class;
* :class:`FrozenValueMixin` values (an immutable tuple subclass shared
  by many messages) are encoded once wherever they appear in a view.

``set_cache_enabled(False)`` switches every cache off (the naive encode
path), which the perf harness uses to prove the optimisation does not
change simulation results.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from operator import itemgetter
from typing import Any, Callable, Dict, Sequence, Tuple

_PACK_U32 = struct.Struct(">I").pack
_PACK_F64 = struct.Struct(">d").pack
_FIRST = itemgetter(0)


class UnserializableError(TypeError):
    """Raised when a value outside the canonical value space is encoded."""


# ---------------------------------------------------------------------------
# Cache switch + statistics
# ---------------------------------------------------------------------------
_cache_enabled = True

#: Process-wide encode-cache statistics (plain ints: the hot path must
#: not pay for metric-object indirection; see
#: ``repro.crypto.publish_cache_metrics`` for the registry bridge).
ENCODE_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable encode-once caching (default: enabled)."""
    global _cache_enabled
    _cache_enabled = bool(enabled)


def cache_enabled() -> bool:
    return _cache_enabled


def reset_encode_stats() -> None:
    ENCODE_STATS["hits"] = 0
    ENCODE_STATS["misses"] = 0


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------
def canonical_bytes(value: Any) -> bytes:
    """Return a deterministic byte encoding of ``value``."""
    return _ENCODERS[type(value)](value)


def _encode_none(value: Any) -> bytes:
    return b"N"


def _encode_bool(value: Any) -> bytes:
    return b"T" if value else b"F"


def _encode_int(value: Any) -> bytes:
    data = str(value).encode()
    return b"i" + _PACK_U32(len(data)) + data


def _encode_float(value: Any) -> bytes:
    return b"f" + _PACK_F64(value)


def _encode_str(value: Any) -> bytes:
    data = value.encode("utf-8")
    return b"s" + _PACK_U32(len(data)) + data


def _encode_bytes(value: Any) -> bytes:
    return b"b" + _PACK_U32(len(value)) + value


def _encode_sequence(value: Any) -> bytes:
    encoders = _ENCODERS
    parts = [b"l" + _PACK_U32(len(value))]
    parts += [encoders[type(item)](item) for item in value]
    return b"".join(parts)


def _encode_dict(value: Any) -> bytes:
    # Sort by the canonical encoding of the key — the encoding leads
    # with the type tag, so mixed-type keys (1 vs "1") order apart
    # instead of colliding under str() and silently falling back to
    # insertion order.
    encoders = _ENCODERS
    items = [(encoders[type(key)](key), item) for key, item in value.items()]
    items.sort(key=_FIRST)
    parts = [b"d" + _PACK_U32(len(items))]
    for key_bytes, item in items:
        parts.append(key_bytes)
        parts.append(encoders[type(item)](item))
    return b"".join(parts)


def _encode_frozenset(value: Any) -> bytes:
    encoders = _ENCODERS
    parts = sorted(encoders[type(item)](item) for item in value)
    parts.insert(0, b"S" + _PACK_U32(len(parts)))
    return b"".join(parts)


def _encode_unserializable(value: Any) -> bytes:
    raise UnserializableError(
        f"cannot canonically serialize {type(value).__name__}: {value!r}")


class _KeyLayout:
    """A fixed set of string keys as the dict encoder would emit them:
    the ``d`` header and the encoded keys in canonical order, each with
    the position its value has in the order the keys were declared."""

    __slots__ = ("head", "slots")

    def __init__(self, keys: Sequence[str]):
        self.head = b"d" + _PACK_U32(len(keys))
        self.slots = tuple(sorted(
            (_encode_str(key), index) for index, key in enumerate(keys)))

    def encode(self, values: Sequence[Any]) -> bytes:
        """``dict(zip(keys, values))``, canonically encoded."""
        encoders = _ENCODERS
        parts = [self.head]
        for key_bytes, index in self.slots:
            item = values[index]
            parts.append(key_bytes)
            parts.append(encoders[type(item)](item))
        return b"".join(parts)


def _dataclass_encoder(tp: type) -> Callable[[Any], bytes]:
    names = tuple(f.name for f in dataclasses.fields(tp))
    head = b"D" + _encode_str(tp.__name__)
    encode_fields = _KeyLayout(names).encode

    def encode(value: Any) -> bytes:
        return head + encode_fields([getattr(value, name) for name in names])

    return encode


class _EncoderTable(dict):
    """``type -> encoder``.  The builtin value space is seeded below;
    any other type is resolved on first sight and memoised: a subclass
    of a builtin (``OrderedDict``, a namedtuple, an int/str enum) takes
    the encoder of the first builtin in its MRO — kept on the value
    when the subclass is a :class:`FrozenValueMixin` — a dataclass gets
    one built from its fields, everything else the encoder that raises
    :class:`UnserializableError`."""

    def __missing__(self, tp: type) -> Callable[[Any], bytes]:
        for base in tp.__mro__:
            encoder = _BUILTIN_ENCODERS.get(base)
            if encoder is not None:
                if issubclass(tp, FrozenValueMixin):
                    encoder = _encoded_once(encoder)
                break
        else:
            if dataclasses.is_dataclass(tp):
                encoder = _dataclass_encoder(tp)
            else:
                encoder = _encode_unserializable
        self[tp] = encoder
        return encoder


_BUILTIN_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): _encode_none, bool: _encode_bool, int: _encode_int,
    float: _encode_float, str: _encode_str, bytes: _encode_bytes,
    list: _encode_sequence, tuple: _encode_sequence, dict: _encode_dict,
    frozenset: _encode_frozenset,
}
_ENCODERS = _EncoderTable(_BUILTIN_ENCODERS)


# ---------------------------------------------------------------------------
# Encode-once caching
# ---------------------------------------------------------------------------
_CACHE_ATTR = "_canonical_cache"


def canonical_cached(value: Any) -> bytes:
    """``canonical_bytes`` memoised on the value object.

    Safe only for values whose canonically-encoded fields are immutable
    after the first call (the sign-then-freeze convention of protocol
    messages).  Values that cannot hold attributes — plain dicts, lists,
    builtins — silently fall back to a fresh encoding.
    """
    if not _cache_enabled:
        return canonical_bytes(value)
    cached = getattr(value, _CACHE_ATTR, None)
    if cached is not None:
        ENCODE_STATS["hits"] += 1
        return cached
    data = canonical_bytes(value)
    try:
        # object.__setattr__ so frozen dataclasses can hold the cache.
        object.__setattr__(value, _CACHE_ATTR, data)
        ENCODE_STATS["misses"] += 1
    except (AttributeError, TypeError):
        pass  # no attribute slot (builtin / __slots__ type): uncached
    return data


class FrozenValueMixin:
    """Mixed into an immutable subclass of a builtin container that
    many messages share (a Spines route set is a tuple of paths): it
    encodes exactly as the builtin does, but once per object, the bytes
    kept on the object — wherever it appears, inside whichever view."""


def _encoded_once(encode: Callable[[Any], bytes]) -> Callable[[Any], bytes]:
    def encode_once(value: Any) -> bytes:
        if not _cache_enabled:
            return encode(value)
        d = value.__dict__
        data = d.get(_CACHE_ATTR)
        if data is None:
            data = d[_CACHE_ATTR] = encode(value)
        return data

    return encode_once


class FrozenViewMixin:
    """Cached canonical bytes + digest of a message's ``signed_view()``.

    Mixed into protocol message dataclasses whose authenticated fields
    are frozen once the message is built (mutable bookkeeping fields
    like ``hop_count`` or attached signatures are *excluded* from the
    view, so they may change freely).  A subclass declares the view's
    fixed key set in ``VIEW_KEYS`` and returns the matching values from
    ``view_values()``; the keys are encoded and sorted once per class,
    so the first ``view_bytes()`` call on a message encodes only the
    values, and every later sign, digest, or verification of the same
    object is a cached read.
    """

    VIEW_KEYS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._view_layout = _KeyLayout(cls.VIEW_KEYS)

    def view_values(self) -> Sequence[Any]:  # pragma: no cover - subclasses override
        """The authenticated values, in ``VIEW_KEYS`` order."""
        raise NotImplementedError

    def signed_view(self) -> dict:
        """The authenticated fields as a plain dict."""
        return dict(zip(self.VIEW_KEYS, self.view_values()))

    def view_bytes(self) -> bytes:
        """Canonical bytes of ``signed_view()``, computed once.

        The miss path stores straight into ``__dict__`` (bypassing the
        frozen-dataclass ``object.__setattr__`` descriptor machinery) so
        that a sign-once message pays as close to the naive encode cost
        as possible — the cache must win on re-encodes without losing on
        first encodes.
        """
        if not _cache_enabled:
            return canonical_bytes(self.signed_view())
        d = self.__dict__
        cached = d.get("_view_bytes")
        if cached is not None:
            ENCODE_STATS["hits"] += 1
            return cached
        data = d["_view_bytes"] = self._view_layout.encode(self.view_values())
        ENCODE_STATS["misses"] += 1
        return data

    def view_digest(self) -> bytes:
        """SHA-256 over :meth:`view_bytes`, computed once."""
        if not _cache_enabled:
            return hashlib.sha256(canonical_bytes(self.signed_view())).digest()
        d = self.__dict__
        cached = d.get("_view_digest")
        if cached is not None:
            return cached
        data = hashlib.sha256(self.view_bytes()).digest()
        d["_view_digest"] = data
        return data


def payload_bytes(payload: Any) -> bytes:
    """The bytes a signature/MAC/digest covers for ``payload``.

    Messages carrying a frozen view (:class:`FrozenViewMixin`) are
    authenticated over their ``signed_view()`` — passing the message
    object itself to ``sign_payload``/``verify_signature``/``digest``
    is equivalent to passing ``message.signed_view()``, but hits the
    encode-once cache.  Everything else encodes via
    :func:`canonical_cached`.
    """
    if isinstance(payload, FrozenViewMixin):
        return payload.view_bytes()
    return canonical_cached(payload)


def payload_digest(payload: Any) -> bytes:
    """SHA-256 of :func:`payload_bytes` (cached for frozen views)."""
    if isinstance(payload, FrozenViewMixin):
        return payload.view_digest()
    return hashlib.sha256(canonical_cached(payload)).digest()
