"""Packed flat-buffer wire format for federated payloads.

Everything that crosses the client-server boundary (or a worker-process
boundary) is a small set of named numpy arrays plus a handful of scalar
fields.  Pickling those is convenient but wasteful: every message pays
the full pickle machinery, dense float64 copies of sparse payloads, and
per-task re-serialization of round-constant state.  This module defines
a minimal self-describing binary layout instead:

    offset 0   magic          b"RFW1"
           4   version        u8  (currently 1)
           5   kind           u8  (KIND_CODES)
           6   segment count  u16 LE
           8   header length  u32 LE (magic through segment table)
          12   total length   u64 LE (whole message)
          20   segment table  one entry per segment
           -   payload        contiguous segment buffers, each 8-aligned

    segment entry:
        flag      u8  (0 = array, 1 = float scalar, 2 = int scalar)
        dtype     u8  (DTYPE_CODES)
        ndim      u8
        name len  u8
        offset    u64 LE (from message start)
        dims      ndim x u64 LE
        name      utf-8 bytes

The payload buffers are dtype-true — a float32 vector costs 4 bytes per
scalar on the wire, never a pickled float64 copy — and :func:`unpack`
returns **zero-copy read-only views** into the source buffer, so a
worker can decode a round-state broadcast out of shared memory without
materializing anything.

Encoding is zero-copy up to the sink: :func:`layout` renders the header
and segment table and keeps views of the segment arrays, and the
resulting :class:`Layout` is consumed once — joined into ``bytes`` by
:func:`pack`, written straight into the process pool's shared
round-state buffer, or streamed piece by piece into a checkpoint file
(:mod:`repro.ckpt.format`).

Three message kinds are used by the transport layer:

* ``"state"`` — the round-constant algorithm state the parent broadcasts
  to workers once per round (:meth:`FederatedAlgorithm._worker_state`).
* ``"update"`` — one finished :class:`~repro.fl.parallel.ClientUpdate`,
  including compressed index/value streams when a sparsifying
  compressor is active.
* ``"generic"`` — free-form named segments.

Anything that cannot be expressed as named arrays / float / int
segments raises :class:`~repro.exceptions.WireError`; callers treat
that as "fall back to pickle", never as a fatal error.

**Framing.**  In memory a message's extent is known from context (a
shared-memory header stores the length).  On a byte stream — the
multi-process serving subsystem (:mod:`repro.serve`) speaks RFW1 over
TCP / Unix-domain sockets — messages are delimited by a little-endian
``u64`` length prefix (:func:`frame`) and reassembled from arbitrarily
fragmented reads by :class:`FrameAssembler`.  Truncated, torn, or
oversized input must never escape as ``IndexError`` / ``struct.error``:
both the assembler and :func:`unpack` validate every declared length
and offset against the actual buffer and raise :class:`WireError`.
"""

from __future__ import annotations

import struct
from typing import Iterator, Mapping

import numpy as np

from repro.exceptions import WireError

MAGIC = b"RFW1"
VERSION = 1

KIND_CODES = {"generic": 0, "update": 1, "state": 2}
_KIND_NAMES = {code: name for name, code in KIND_CODES.items()}

# Wire dtype registry.  Only dtypes that actually cross the boundary are
# admitted; anything else (object arrays, strings) must go via pickle.
DTYPE_CODES = {
    np.dtype(np.float32): 0,
    np.dtype(np.float64): 1,
    np.dtype(np.int32): 2,
    np.dtype(np.int64): 3,
    np.dtype(np.bool_): 4,
    np.dtype(np.uint8): 5,
}
_CODE_DTYPES = {code: dt for dt, code in DTYPE_CODES.items()}

_FLAG_ARRAY = 0
_FLAG_FLOAT = 1
_FLAG_INT = 2

_HEADER = struct.Struct("<4sBBHIQ")  # magic, version, kind, nseg, hdr_len, total_len
_ENTRY_FIXED = struct.Struct("<BBBBQ")  # flag, dtype, ndim, name_len, offset

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _as_segment(name: str, value) -> tuple[int, np.ndarray]:
    """Normalize one segment value to (flag, contiguous ndarray)."""
    if isinstance(value, np.ndarray):
        if value.dtype not in DTYPE_CODES:
            raise WireError(f"segment {name!r}: unsupported dtype {value.dtype}")
        return _FLAG_ARRAY, np.ascontiguousarray(value)
    if isinstance(value, (bool, np.bool_)):
        return _FLAG_INT, np.asarray(int(value), dtype=np.int64)
    if isinstance(value, (int, np.integer)):
        return _FLAG_INT, np.asarray(int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return _FLAG_FLOAT, np.asarray(float(value), dtype=np.float64)
    raise WireError(f"segment {name!r}: cannot encode {type(value).__name__}")


class Layout:
    """One RFW1 message laid out but not joined.

    ``header`` holds the fixed header and the segment table; ``views``
    pairs each segment's absolute offset with a flat byte view of its
    array — zero-copy for C-contiguous inputs, so the layout aliases
    the caller's arrays and is valid only while they are unchanged.
    ``len()`` is the message's byte count.  The three sinks —
    :meth:`tobytes`, :meth:`write_into` and :meth:`chunks` — produce
    the same bytes.
    """

    __slots__ = ("header", "views", "total")

    def __init__(self, header: bytes, views: list[tuple[int, memoryview]], total: int):
        self.header = header
        self.views = views
        self.total = total

    def __len__(self) -> int:
        return self.total

    def chunks(self) -> Iterator[bytes | memoryview]:
        """The message's bytes in order, alignment padding included."""
        yield self.header
        pos = len(self.header)
        for offset, view in self.views:
            if offset > pos:
                yield bytes(offset - pos)
            yield view
            pos = offset + len(view)
        if self.total > pos:
            yield bytes(self.total - pos)

    def tobytes(self) -> bytes:
        """Join the message into one ``bytes`` object (one copy)."""
        return b"".join(self.chunks())

    def write_into(self, buf, offset: int) -> None:
        """Write the message into the writable buffer ``buf`` (an mmap,
        a bytearray) at ``offset``, padding included."""
        for chunk in self.chunks():
            end = offset + len(chunk)
            buf[offset:end] = chunk
            offset = end


def layout(kind: str, segments: Mapping[str, object]) -> Layout:
    """Lay out named segments as one wire message, without copying
    contiguous arrays."""
    if kind not in KIND_CODES:
        raise WireError(f"unknown message kind {kind!r}")
    normalized: list[tuple[bytes, int, np.ndarray]] = []
    for name, value in segments.items():
        name_bytes = name.encode("utf-8")
        if not name_bytes or len(name_bytes) > 255:
            raise WireError(f"segment name {name!r} must encode to 1..255 bytes")
        flag, arr = _as_segment(name, value)
        if arr.ndim > 255:
            raise WireError(f"segment {name!r}: too many dimensions")
        normalized.append((name_bytes, flag, arr))

    header_len = _HEADER.size + sum(
        _ENTRY_FIXED.size + arr.ndim * 8 + len(name_bytes)
        for name_bytes, _, arr in normalized
    )
    header = bytearray(header_len)
    views: list[tuple[int, memoryview]] = []
    cursor = _align(header_len)
    pos = _HEADER.size
    for name_bytes, flag, arr in normalized:
        _ENTRY_FIXED.pack_into(
            header, pos, flag, DTYPE_CODES[arr.dtype], arr.ndim, len(name_bytes), cursor
        )
        pos += _ENTRY_FIXED.size
        struct.pack_into(f"<{arr.ndim}Q", header, pos, *arr.shape)
        pos += arr.ndim * 8
        header[pos : pos + len(name_bytes)] = name_bytes
        pos += len(name_bytes)
        views.append((cursor, memoryview(arr.reshape(-1)).cast("B")))
        cursor = _align(cursor + arr.nbytes)
    _HEADER.pack_into(
        header, 0, MAGIC, VERSION, KIND_CODES[kind], len(normalized), header_len, cursor
    )
    return Layout(bytes(header), views, cursor)


def pack(kind: str, segments: Mapping[str, object]) -> bytes:
    """Encode named segments into one contiguous wire message."""
    return layout(kind, segments).tobytes()


def unpack(buf) -> tuple[str, dict[str, object]]:
    """Decode a wire message into ``(kind, segments)``.

    Array segments come back as zero-copy **read-only** views into
    ``buf`` (which may be bytes, a memoryview, or an mmap); scalar
    segments come back as plain ``float`` / ``int``.  The views keep
    ``buf`` alive, but a caller that overwrites a shared buffer in place
    (the round-state mmap) must not hold views across the overwrite.
    """
    view = memoryview(buf)
    if len(view) < _HEADER.size:
        raise WireError(f"message truncated: {len(view)} bytes")
    try:
        magic, version, kind_code, nseg, header_len, total_len = _HEADER.unpack_from(
            view, 0
        )
    except struct.error as exc:  # non-contiguous / exotic buffer shapes
        raise WireError(f"unreadable message header: {exc}") from exc
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    if kind_code not in _KIND_NAMES:
        raise WireError(f"unknown kind code {kind_code}")
    if header_len < _HEADER.size:
        raise WireError(
            f"header length {header_len} smaller than the fixed header"
        )
    if total_len > len(view) or header_len > total_len:
        raise WireError(
            f"message truncated: header claims {total_len} bytes, have {len(view)}"
        )

    segments: dict[str, object] = {}
    pos = _HEADER.size
    for _ in range(nseg):
        # Every entry read is bounds-checked against the *declared*
        # header extent first, so a lying segment count or a torn table
        # raises WireError instead of struct.error / IndexError.
        if pos + _ENTRY_FIXED.size > header_len:
            raise WireError("segment table overruns the declared header")
        flag, dtype_code, ndim, name_len, offset = _ENTRY_FIXED.unpack_from(view, pos)
        pos += _ENTRY_FIXED.size
        if pos + ndim * 8 + name_len > header_len:
            raise WireError("segment entry overruns the declared header")
        dims = struct.unpack_from(f"<{ndim}Q", view, pos) if ndim else ()
        pos += ndim * 8
        try:
            name = bytes(view[pos : pos + name_len]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"segment name is not valid UTF-8: {exc}") from exc
        pos += name_len
        if flag not in (_FLAG_ARRAY, _FLAG_FLOAT, _FLAG_INT):
            raise WireError(f"segment {name!r}: unknown flag {flag}")
        dtype = _CODE_DTYPES.get(dtype_code)
        if dtype is None:
            raise WireError(f"segment {name!r}: unknown dtype code {dtype_code}")
        # Python-int product: u64 dims from a hostile message cannot
        # silently overflow an int64 accumulator into a "valid" size.
        count = 1
        for dim in dims:
            count *= int(dim)
        if flag != _FLAG_ARRAY and count != 1:
            raise WireError(f"scalar segment {name!r} must hold exactly one value")
        end = offset + count * dtype.itemsize
        if offset < header_len or end > total_len:
            raise WireError(f"segment {name!r} overruns the message")
        arr = np.frombuffer(view, dtype=dtype, count=count, offset=offset)
        if flag == _FLAG_FLOAT:
            segments[name] = float(arr[0])
        elif flag == _FLAG_INT:
            segments[name] = int(arr[0])
        else:
            arr = arr.reshape(dims)
            arr.flags.writeable = False
            segments[name] = arr
    return _KIND_NAMES[kind_code], segments


# -- stream framing -----------------------------------------------------------------

# A framed message on a byte stream is [u64 LE length][message].  The
# serving subsystem (repro.serve) uses this for every socket exchange.
FRAME_PREFIX = struct.Struct("<Q")

# A declared frame length beyond this is treated as stream corruption,
# not as a request to buffer gigabytes: no payload in this codebase
# comes anywhere near it, and a torn prefix read as a length must not
# stall the reader forever waiting for impossible bytes.
MAX_FRAME_BYTES = 1 << 31


def frame(message: bytes) -> bytes:
    """Length-prefix one wire message for transmission on a byte stream."""
    if not message:
        raise WireError("cannot frame an empty message")
    if len(message) > MAX_FRAME_BYTES:
        raise WireError(
            f"message of {len(message)} bytes exceeds the {MAX_FRAME_BYTES}-byte "
            "frame limit"
        )
    return FRAME_PREFIX.pack(len(message)) + message


class FrameAssembler:
    """Reassemble length-prefixed frames from fragmented stream reads.

    Sockets deliver bytes, not messages: one ``recv`` may carry half a
    length prefix, several concatenated frames, or a single byte.
    :meth:`feed` buffers whatever arrives and returns every *complete*
    frame payload, in order.  A declared length of zero or beyond
    ``max_frame_bytes`` raises :class:`WireError` immediately — the
    stream is corrupt and waiting for more bytes cannot fix it.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = int(max_frame_bytes)
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb one read's bytes; return the completed frame payloads."""
        self._buffer.extend(data)
        frames: list[bytes] = []
        while len(self._buffer) >= FRAME_PREFIX.size:
            (length,) = FRAME_PREFIX.unpack_from(self._buffer, 0)
            if length == 0 or length > self.max_frame_bytes:
                raise WireError(
                    f"frame declares {length} bytes "
                    f"(limit {self.max_frame_bytes}); stream is corrupt"
                )
            end = FRAME_PREFIX.size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[FRAME_PREFIX.size : end]))
            del self._buffer[:end]
        return frames


# -- round-state broadcast ----------------------------------------------------------


def pack_state(state: Mapping[str, object]) -> Layout:
    """Lay out a round-state dict (arrays / scalars) for broadcast.

    The result aliases the state's arrays; the parent writes it straight
    into the shared round-state buffer (:meth:`Layout.write_into`).
    """
    return layout("state", state)


def unpack_state(buf) -> dict[str, object]:
    """Decode a round-state broadcast; arrays are zero-copy views."""
    kind, segments = unpack(buf)
    if kind != "state":
        raise WireError(f"expected a state message, got {kind!r}")
    return segments


# -- client updates -----------------------------------------------------------------

# Fixed numeric fields of ClientUpdate, packed as scalar segments.
_UPDATE_INTS = ("client_id", "wire", "num_steps", "worker")
_UPDATE_FLOATS = ("task_loss", "reg_loss", "train_seconds")


def pack_client_update(update) -> bytes:
    """Encode a :class:`~repro.fl.parallel.ClientUpdate`.

    Raises :class:`WireError` when the update carries anything the
    format cannot express (e.g. an exotic payload value); the transport
    then falls back to returning the pickled update.
    """
    segments: dict[str, object] = {}
    for field in _UPDATE_INTS:
        segments[f"f.{field}"] = int(getattr(update, field))
    for field in _UPDATE_FLOATS:
        segments[f"f.{field}"] = float(getattr(update, field))
    if update.params is not None:
        segments["params"] = update.params
    if update.residual is not None:
        segments["residual"] = update.residual
    if update.wire_size is not None:
        ws = update.wire_size
        legacy_scalars = -1 if ws.legacy_scalars is None else int(ws.legacy_scalars)
        segments["wire_size"] = np.array(
            [ws.values, ws.index_ints, ws.raw_bytes, legacy_scalars, int(ws.legacy)],
            dtype=np.int64,
        )
    if update.params_streams:
        for name, value in update.params_streams.items():
            if not isinstance(value, np.ndarray):
                raise WireError(f"stream {name!r} must be an ndarray")
            segments[f"s.{name}"] = value
    if update.payload:
        for name, value in update.payload.items():
            segments[f"p.{name}"] = value
    return pack("update", segments)


def unpack_client_update(buf):
    """Decode a packed client update; array fields are zero-copy views."""
    from repro.fl.compression import WireSize
    from repro.fl.parallel import ClientUpdate

    kind, segments = unpack(buf)
    if kind != "update":
        raise WireError(f"expected an update message, got {kind!r}")
    fields: dict[str, object] = {}
    streams: dict[str, np.ndarray] = {}
    payload: dict[str, object] = {}
    params = None
    residual = None
    wire_size = None
    for name, value in segments.items():
        prefix, _, rest = name.partition(".")
        if prefix == "f":
            fields[rest] = value
        elif prefix == "s":
            streams[rest] = value
        elif prefix == "p":
            payload[rest] = value
        elif name == "params":
            params = value
        elif name == "residual":
            residual = value
        elif name == "wire_size":
            values, index_ints, raw_bytes, legacy_scalars, legacy = (
                int(x) for x in value
            )
            wire_size = WireSize(
                values=values,
                index_ints=index_ints,
                raw_bytes=raw_bytes,
                legacy_scalars=None if legacy_scalars < 0 else legacy_scalars,
                legacy=bool(legacy),
            )
        else:
            raise WireError(f"unexpected segment {name!r} in update message")
    missing = [f for f in _UPDATE_INTS + _UPDATE_FLOATS if f not in fields]
    if missing:
        raise WireError(f"update message missing fields {missing}")
    return ClientUpdate(
        client_id=int(fields["client_id"]),
        params=params,
        wire=int(fields["wire"]),
        task_loss=float(fields["task_loss"]),
        reg_loss=float(fields["reg_loss"]),
        num_steps=int(fields["num_steps"]),
        train_seconds=float(fields["train_seconds"]),
        worker=int(fields["worker"]),
        payload=payload or None,
        params_streams=streams or None,
        wire_size=wire_size,
        residual=residual,
    )
