"""Crash-safe, self-describing checkpoint container format (RCK1).

A checkpoint is one file holding a small JSON manifest plus named binary
sections, laid out so that *any* torn, truncated, or bit-flipped write is
detected at read time and treated as "this checkpoint does not exist"
rather than as silent corruption:

    offset 0   magic            b"RCK1\\n"
           5   manifest length  u32 LE
           9   manifest hash    16 bytes (blake2b-128 of the manifest)
          25   manifest         UTF-8 JSON
           -   section payloads, contiguous, in manifest order

The manifest is self-describing: a format version, free-form ``meta``
(round index, provenance), and a section table where every entry carries
the section's name, byte offset, length, and blake2b-128 content hash.
:func:`read_checkpoint` verifies the magic, the manifest hash, and every
section hash before returning anything; any failure raises
:class:`~repro.exceptions.CheckpointError`.

Writes are crash-safe the classic way: the full file is written to a
temporary sibling, flushed and fsynced, then atomically renamed over the
final path (and the directory fsynced, best effort).  A crash at any
point leaves either the old file, the new file, or a stray ``*.tmp-*``
sibling — never a half-written checkpoint under the real name.

Section payloads reuse the RFW1 wire format (:mod:`repro.fl.wire`)
through :func:`pack_tree` / :func:`layout_tree` / :func:`unpack_tree`,
which round-trip an arbitrary JSON-able tree whose leaves may
additionally be numpy arrays or raw ``bytes`` (content fingerprints).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from repro.exceptions import CheckpointError, WireError
from repro.fl import wire

MAGIC = b"RCK1\n"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<5sI16s")  # magic, manifest length, manifest blake2b-128

_ARRAY_KEY = "__nd__"
_BYTES_KEY = "__hex__"
_TUPLE_KEY = "__tuple__"


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


# -- tree <-> bytes -----------------------------------------------------------------


def layout_tree(tree: dict) -> wire.Layout:
    """Lay out a nested dict of JSON-able values, numpy arrays and bytes.

    Arrays are stored dtype-true in RFW1 segments (no base64 bloat, no
    pickle); everything else rides a JSON skeleton with ``{"__nd__": i}``
    / ``{"__hex__": ...}`` markers at the array / bytes leaves.  The
    skeleton is rendered now, but contiguous arrays are not copied: the
    layout aliases them, so it must be consumed (written, joined) before
    they change.
    """
    arrays: dict[str, np.ndarray] = {}

    def encode(node):
        if isinstance(node, np.ndarray):
            name = f"a{len(arrays)}"
            arrays[name] = node
            return {_ARRAY_KEY: name}
        if isinstance(node, (bytes, bytearray)):
            return {_BYTES_KEY: bytes(node).hex()}
        if isinstance(node, dict):
            out = {}
            for key, value in node.items():
                if not isinstance(key, str):
                    raise CheckpointError(f"tree keys must be str, got {key!r}")
                if key in (_ARRAY_KEY, _BYTES_KEY, _TUPLE_KEY):
                    raise CheckpointError(f"reserved tree key {key!r}")
                out[key] = encode(value)
            return out
        if isinstance(node, tuple):
            return {_TUPLE_KEY: [encode(v) for v in node]}
        if isinstance(node, list):
            return [encode(v) for v in node]
        if isinstance(node, (np.integer,)):
            return int(node)
        if isinstance(node, (np.floating,)):
            return float(node)
        if isinstance(node, (np.bool_,)):
            return bool(node)
        if node is None or isinstance(node, (str, int, float, bool)):
            return node
        raise CheckpointError(f"cannot checkpoint value of type {type(node).__name__}")

    skeleton = encode(tree)
    payload = json.dumps(skeleton, separators=(",", ":")).encode("utf-8")
    segments: dict[str, object] = {"__json__": np.frombuffer(payload, dtype=np.uint8)}
    segments.update(arrays)
    try:
        return wire.layout("generic", segments)
    except WireError as exc:
        raise CheckpointError(f"unpackable checkpoint section: {exc}") from exc


def pack_tree(tree: dict) -> bytes:
    """:func:`layout_tree`, joined into one ``bytes`` section."""
    return layout_tree(tree).tobytes()


def unpack_tree(buf: bytes) -> dict:
    """Inverse of :func:`pack_tree`.

    Arrays come back as fresh *writable* copies — restore paths write
    them into live state in place, so read-only wire views would not do.
    """
    try:
        kind, segments = wire.unpack(buf)
    except WireError as exc:
        raise CheckpointError(f"undecodable checkpoint section: {exc}") from exc
    if kind != "generic" or "__json__" not in segments:
        raise CheckpointError("checkpoint section missing its JSON skeleton")
    skeleton = json.loads(bytes(segments["__json__"]).decode("utf-8"))

    def decode(node):
        if isinstance(node, dict):
            if _ARRAY_KEY in node:
                name = node[_ARRAY_KEY]
                if name not in segments:
                    raise CheckpointError(f"checkpoint section missing array {name!r}")
                return np.array(segments[name], copy=True)
            if _BYTES_KEY in node:
                return bytes.fromhex(node[_BYTES_KEY])
            if _TUPLE_KEY in node:
                return tuple(decode(v) for v in node[_TUPLE_KEY])
            return {key: decode(value) for key, value in node.items()}
        if isinstance(node, list):
            return [decode(v) for v in node]
        return node

    return decode(skeleton)


# -- file container -----------------------------------------------------------------


# Sections stream to the hash and the file in pieces of this size, so
# each piece is still in cache when it is written after being hashed.
_STREAM_CHUNK = 1 << 20


def _section_chunks(section: bytes | wire.Layout):
    pieces = section.chunks() if isinstance(section, wire.Layout) else (section,)
    for piece in pieces:
        view = memoryview(piece)
        for start in range(0, len(view), _STREAM_CHUNK):
            yield view[start : start + _STREAM_CHUNK]


def write_checkpoint(
    path: str | Path, meta: dict, sections: dict[str, bytes | wire.Layout]
) -> Path:
    """Atomically persist ``sections`` under ``path``.

    A section is either packed bytes or a :class:`~repro.fl.wire.Layout`
    (see :func:`layout_tree`); a layout is streamed from the arrays it
    aliases, each piece hashed and written in one pass, and yields the
    same file as its joined bytes would.  The file appears under its
    final name only after the full content has been flushed and
    fsynced; concurrent writers cannot interleave because the temporary
    name embeds the writer's pid.
    """
    path = Path(path)
    blobs = list(sections.items())
    # Hashes are fixed-width hex, so a placeholder of the same width
    # sizes the manifest before the single hashing/writing pass fills
    # them in.
    table = [
        {"name": name, "offset": 0, "length": len(blob), "blake2b": "0" * 32}
        for name, blob in blobs
    ]

    def render(entries) -> bytes:
        manifest = {
            "format_version": FORMAT_VERSION,
            "meta": meta,
            "sections": entries,
        }
        return json.dumps(manifest, sort_keys=True).encode("utf-8")

    # Offsets are fixed-width decimal-agnostic integers in JSON; sizing
    # can shift as offsets grow, so iterate until stable (2 passes in
    # practice, bounded defensively).
    manifest_bytes = render(table)
    for _ in range(8):
        cursor = _HEADER.size + len(manifest_bytes)
        for entry in table:
            entry["offset"] = cursor
            cursor += entry["length"]
        rendered = render(table)
        if len(rendered) == len(manifest_bytes):
            manifest_bytes = rendered
            break
        manifest_bytes = rendered
    else:  # pragma: no cover - would need pathological manifest growth
        raise CheckpointError("manifest layout did not converge")

    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "wb") as handle:
            handle.seek(_HEADER.size + len(manifest_bytes))
            for entry, (_name, blob) in zip(table, blobs):
                digest = hashlib.blake2b(digest_size=16)
                for chunk in _section_chunks(blob):
                    digest.update(chunk)
                    handle.write(chunk)
                entry["blake2b"] = digest.hexdigest()
            final_manifest = render(table)
            if len(final_manifest) != len(manifest_bytes):  # pragma: no cover
                raise CheckpointError("manifest size changed after hashing")
            handle.seek(0)
            header = _HEADER.pack(MAGIC, len(final_manifest), _digest(final_manifest))
            handle.write(header)
            handle.write(final_manifest)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write leaves no stray temporaries
            try:
                tmp.unlink()
            except OSError:
                pass
    try:  # make the rename itself durable; not all filesystems allow this
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass
    return path


def read_manifest(path: str | Path) -> dict:
    """Read and verify only the manifest (cheap validity/metadata probe)."""
    manifest, _raw = _read_verified_manifest(Path(path))
    return manifest


def _read_verified_manifest(path: Path) -> tuple[dict, bytes]:
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise CheckpointError(f"{path.name}: truncated header")
            magic, manifest_len, manifest_hash = _HEADER.unpack(header)
            if magic != MAGIC:
                raise CheckpointError(f"{path.name}: bad magic {magic!r}")
            manifest_bytes = handle.read(manifest_len)
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from exc
    if len(manifest_bytes) < manifest_len:
        raise CheckpointError(f"{path.name}: truncated manifest")
    if _digest(manifest_bytes) != manifest_hash:
        raise CheckpointError(f"{path.name}: manifest hash mismatch")
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path.name}: undecodable manifest") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path.name}: unsupported format version "
            f"{manifest.get('format_version')!r}"
        )
    return manifest, manifest_bytes


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, bytes]]:
    """Read, verify, and return ``(manifest, sections)``.

    Every section's length and content hash is checked against the
    manifest; a mismatch anywhere raises :class:`CheckpointError` so the
    caller can roll back to an older checkpoint.
    """
    path = Path(path)
    manifest, _raw = _read_verified_manifest(path)
    sections: dict[str, bytes] = {}
    try:
        with open(path, "rb") as handle:
            for entry in manifest.get("sections", []):
                handle.seek(int(entry["offset"]))
                blob = handle.read(int(entry["length"]))
                if len(blob) < int(entry["length"]):
                    raise CheckpointError(
                        f"{path.name}: section {entry['name']!r} truncated"
                    )
                if _digest(blob).hex() != entry["blake2b"]:
                    raise CheckpointError(
                        f"{path.name}: section {entry['name']!r} hash mismatch"
                    )
                sections[entry["name"]] = blob
    except OSError as exc:
        raise CheckpointError(f"{path}: unreadable ({exc})") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path.name}: malformed section table") from exc
    return manifest, sections
