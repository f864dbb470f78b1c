"""The on-disk snapshot container.

A snapshot file is self-describing::

    SPIRESNAP\\n                      magic line
    <header JSON>\\n                  one line, sorted keys
    <payload bytes>                   pickled state

The header carries the schema version, a ``kind`` discriminator
(``"world"``, ``"campaign-checkpoint"``), caller metadata
(spec, seed, simulated time, ...), and the payload's length and SHA-256
digest.  :func:`read_header` inspects a snapshot without unpickling it
— that is what lets the replay tooling scan a directory of checkpoints
for the one nearest a FlightRecorder dump cheaply — and :func:`load`
verifies the digest before handing bytes to pickle, so a corrupt or
truncated file fails loudly instead of unpickling garbage.

Writes go through :mod:`repro.util.atomicio`, so an interrupted save
never leaves a partial snapshot behind.

:func:`dumps` / :func:`loads` are the bytes-level counterparts — the
exact same container layout and digest verification without touching
disk.  They are the fast path for in-memory snapshot caches (see
:mod:`repro.snapshot.warmcache`); :func:`dump` and :func:`load` are
thin disk wrappers around them, so the format logic exists once.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Any, Dict, Optional, Tuple

from repro.util.atomicio import write_bytes

MAGIC = b"SPIRESNAP"

#: Bump on any incompatible change to header fields or payload layout
#: — the kernel's heap entry shape included, since a payload pickled
#: around the old shape would only fail later, inside ``run()``.
#: 2: heap entries are ``(time, seq, handle, fn, args)``.
#: 3: every world is a ``repro.core.wiring.Deployment``; campaign cells
#: lost ``kind`` / ``planned_commands``.
#: 4: a Spines daemon holds its network and a per-source map of seen
#: sequence numbers; overlay messages carry a route set.
#: 5: route sets are ``RouteSet`` tuples; a Spines network memoises
#: pair and group route sets; the overlay's signed view binds the
#: payload's own signature.
#: 6: Prime replicas hold stable checkpoints and a preorder floor and
#: no longer keep execution times; a Spines daemon's seen and delivered
#: seqs are bounded per-source windows; a random stream not yet drawn
#: from holds no ``random.Random``.
SCHEMA_VERSION = 6


class SnapshotError(RuntimeError):
    """Raised for unreadable, corrupt, or incompatible snapshot files."""


def _encode(kind: str, payload: Any,
            meta: Optional[Dict[str, Any]] = None,
            ) -> Tuple[bytes, Dict[str, Any]]:
    """Pickle ``payload`` into container bytes; the single encode path
    behind both :func:`dump` (disk) and :func:`dumps` (in-memory)."""
    try:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        # What pickle raises for a lambda, a local function or an open
        # handle somewhere in the graph (e.g. a world carrying a timer
        # whose callback is a closure).
        raise SnapshotError(
            f"cannot snapshot this {kind!r} payload: {exc}") from exc
    header = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "meta": meta or {},
        "payload_bytes": len(blob),
        "payload_sha256": hashlib.sha256(blob).hexdigest(),
    }
    header_line = json.dumps(header, sort_keys=True,
                             separators=(",", ":")).encode()
    return MAGIC + b"\n" + header_line + b"\n" + blob, header


def dumps(kind: str, payload: Any,
          meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize a snapshot container to bytes — the in-memory fast
    path (warm caches, IPC) with the exact on-disk layout and digest,
    so :func:`loads` applies the same integrity check :func:`load`
    does."""
    data, _header = _encode(kind, payload, meta)
    return data


def dump(path: str, kind: str, payload: Any,
         meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Pickle ``payload`` and write a snapshot container atomically.

    Returns the header that was written (handy for logging sizes).
    """
    data, header = _encode(kind, payload, meta)
    write_bytes(path, data)
    return header


def read_header(path: str) -> Dict[str, Any]:
    """Read and validate only the header (no unpickling, O(header))."""
    try:
        with open(path, "rb") as handle:
            magic = handle.readline().rstrip(b"\n")
            if magic != MAGIC:
                raise SnapshotError(f"{path}: not a snapshot file "
                                    f"(bad magic {magic[:16]!r})")
            try:
                header = json.loads(handle.readline())
            except ValueError as exc:
                raise SnapshotError(f"{path}: corrupt header: {exc}") from exc
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"{path}: snapshot schema {schema} is not supported "
            f"(this build reads schema {SCHEMA_VERSION})")
    return header


def _parse(data: bytes, source: str) -> Tuple[Dict[str, Any], bytes]:
    """Split container bytes into (validated header, payload blob)."""
    magic_end = data.find(b"\n")
    if magic_end < 0 or data[:magic_end] != MAGIC:
        raise SnapshotError(f"{source}: not a snapshot file "
                            f"(bad magic {data[:16]!r})")
    header_end = data.find(b"\n", magic_end + 1)
    if header_end < 0:
        raise SnapshotError(f"{source}: corrupt header: unterminated")
    try:
        header = json.loads(data[magic_end + 1:header_end])
    except ValueError as exc:
        raise SnapshotError(f"{source}: corrupt header: {exc}") from exc
    schema = header.get("schema")
    if schema != SCHEMA_VERSION:
        raise SnapshotError(
            f"{source}: snapshot schema {schema} is not supported "
            f"(this build reads schema {SCHEMA_VERSION})")
    return header, data[header_end + 1:]


def loads_header(data: bytes,
                 source: str = "snapshot bytes") -> Dict[str, Any]:
    """Header of container bytes (no unpickling, no digest work) —
    the bytes-level counterpart of :func:`read_header`."""
    header, _blob = _parse(data, source)
    return header


def loads(data: bytes, expect_kind: Optional[str] = None,
          source: str = "snapshot bytes") -> Tuple[Dict[str, Any], Any]:
    """Integrity-check and unpickle container bytes (inverse of
    :func:`dumps`); the single decode path behind :func:`load` too.

    Returns ``(header, payload)``.  Raises :class:`SnapshotError` on a
    bad magic, unsupported schema, kind mismatch, truncated payload, or
    digest mismatch — never unpickles unverified bytes.
    """
    header, blob = _parse(data, source)
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise SnapshotError(
            f"{source}: expected a {expect_kind!r} snapshot, "
            f"found {header.get('kind')!r}")
    if len(blob) != header["payload_bytes"]:
        raise SnapshotError(
            f"{source}: truncated payload ({len(blob)} of "
            f"{header['payload_bytes']} bytes)")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header["payload_sha256"]:
        raise SnapshotError(f"{source}: payload digest mismatch "
                            f"(file is corrupt)")
    return header, pickle.loads(blob)


def load(path: str, expect_kind: Optional[str] = None,
         ) -> Tuple[Dict[str, Any], Any]:
    """Read, integrity-check, and unpickle a snapshot file.

    Returns ``(header, payload)``; delegates the container parsing and
    digest verification to :func:`loads` (one decode path).
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    return loads(data, expect_kind=expect_kind, source=path)


def scan_dir(directory: str, kind: Optional[str] = None) -> list:
    """Headers of every readable snapshot in ``directory``.

    Returns ``[(path, header), ...]`` sorted by path; unreadable or
    foreign files are skipped silently so a dumps/checkpoints directory
    may hold other artifacts.
    """
    out = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        try:
            header = read_header(path)
        except SnapshotError:
            continue
        if kind is not None and header.get("kind") != kind:
            continue
        out.append((path, header))
    return out
