"""RFW1 byte-identity oracle for the layout encoder (:func:`repro.fl.wire.layout`).

``_reference_pack`` is a frozen, self-contained copy of the original
single-buffer encoder (its own constants and normalization).  Every
sink of a :class:`~repro.fl.wire.Layout` — the joined bytes, an
in-place write into a shared buffer, and the streamed chunks a
checkpoint hashes and writes — must reproduce its bytes exactly, so
the wire format cannot drift while the copies around it are removed.
"""

from __future__ import annotations

import hashlib
import mmap
import struct

import numpy as np
import pytest

from repro.fl import wire


_REF_HEADER = struct.Struct("<4sBBHIQ")  # magic, version, kind, nseg, hdr_len, total_len
_REF_ENTRY = struct.Struct("<BBBBQ")  # flag, dtype, ndim, name_len, offset
_REF_KINDS = {"generic": 0, "update": 1, "state": 2}
_REF_DTYPES = {
    np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.int32): 2,
    np.dtype(np.int64): 3, np.dtype(np.bool_): 4, np.dtype(np.uint8): 5,
}


def _reference_pack(kind: str, segments: dict) -> bytes:
    def align(n: int) -> int:
        return (n + 7) & ~7

    normalized = []
    for name, value in segments.items():
        if isinstance(value, np.ndarray):
            flag, arr = 0, np.ascontiguousarray(value)
        elif isinstance(value, (bool, np.bool_, int, np.integer)):
            flag, arr = 2, np.asarray(int(value), dtype=np.int64)
        else:
            flag, arr = 1, np.asarray(float(value), dtype=np.float64)
        normalized.append((name.encode("utf-8"), flag, arr))
    header_len = _REF_HEADER.size + sum(
        _REF_ENTRY.size + arr.ndim * 8 + len(name_bytes)
        for name_bytes, _, arr in normalized
    )
    offsets = []
    cursor = align(header_len)
    for _, _, arr in normalized:
        offsets.append(cursor)
        cursor = align(cursor + arr.nbytes)
    total_len = cursor
    buf = bytearray(total_len)
    _REF_HEADER.pack_into(
        buf, 0, b"RFW1", 1, _REF_KINDS[kind], len(normalized), header_len, total_len
    )
    pos = _REF_HEADER.size
    for (name_bytes, flag, arr), offset in zip(normalized, offsets):
        _REF_ENTRY.pack_into(
            buf, pos, flag, _REF_DTYPES[arr.dtype], arr.ndim, len(name_bytes), offset
        )
        pos += _REF_ENTRY.size
        for dim in arr.shape:
            struct.pack_into("<Q", buf, pos, dim)
            pos += 8
        buf[pos : pos + len(name_bytes)] = name_bytes
        pos += len(name_bytes)
        buf[offset : offset + arr.nbytes] = arr.tobytes()
    return bytes(buf)


def _cases() -> dict[str, dict]:
    rng = np.random.default_rng(0)
    every_dtype = {
        f"d.{np.dtype(dt).name}": (rng.standard_normal(7) * 9).astype(dt)
        for dt in _REF_DTYPES
    }
    matrix = rng.standard_normal((5, 6))
    return {
        "every_dtype": every_dtype,
        "scalars": {"b": True, "nb": np.bool_(False), "i": -3, "ni": np.int32(9),
                    "f": 0.1, "nf": np.float32(2.5)},
        "zero_d_and_empty": {
            "zero_d": np.array(4.0),
            "empty": np.zeros(0),
            "empty_2d": np.zeros((3, 0), dtype=np.int32),
        },
        "non_contiguous": {
            "strided": matrix[:, ::2],
            "transposed": matrix.T,
            "fortran": np.asfortranarray(matrix),
            "reversed": np.arange(9, dtype=np.int64)[::-1],
        },
        "padding": {f"u{n}": np.arange(n, dtype=np.uint8) for n in (1, 3, 7, 9, 13)},
        "long_name": {"n" * 255: np.arange(3, dtype=np.float32), "x": 1},
        "no_segments": {},
    }


CASES = _cases()
KINDS = ("generic", "state", "update")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_joined_bytes_match_reference(case, kind):
    expected = _reference_pack(kind, CASES[case])
    message = wire.layout(kind, CASES[case])
    assert len(message) == len(expected)
    assert message.tobytes() == expected
    assert wire.pack(kind, CASES[case]) == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_in_place_write_matches_reference_and_unpacks(case):
    segments = CASES[case]
    expected = _reference_pack("state", segments)
    message = wire.pack_state(segments)
    offset = 16
    buf = mmap.mmap(-1, offset + len(message) + 64)
    try:
        # Stale bytes from an earlier, larger message must not leak
        # through the alignment padding.
        buf[:] = b"\xff" * len(buf)
        message.write_into(buf, offset)
        assert buf[offset : offset + len(message)] == expected
        view = memoryview(buf)[offset : offset + len(message)]
        out = wire.unpack_state(view)
        _assert_segments_equal(out, wire.unpack_state(expected))
        del out, view
    finally:
        buf.close()


@pytest.mark.parametrize("case", sorted(CASES))
def test_streamed_chunks_match_reference(case):
    expected = _reference_pack("generic", CASES[case])
    message = wire.layout("generic", CASES[case])
    digest = hashlib.blake2b(digest_size=16)
    streamed = bytearray()
    for chunk in message.chunks():
        digest.update(chunk)
        streamed += chunk
    assert bytes(streamed) == expected
    assert digest.digest() == hashlib.blake2b(expected, digest_size=16).digest()


def test_layout_aliases_contiguous_arrays():
    table = np.zeros((4, 8))
    message = wire.layout("state", {"table": table})
    table[2, 3] = 7.0  # a later write shows: the layout holds a view, not a copy
    _, out = wire.unpack(message.tobytes())
    assert out["table"][2, 3] == 7.0


def _assert_segments_equal(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype
            np.testing.assert_array_equal(got[name], value)
        else:
            assert got[name] == value
