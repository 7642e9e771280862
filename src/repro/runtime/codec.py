"""Pluggable wire codecs for the message-passing runtime.

Two codecs share one API and one value model (the JSON-serialisable subset
the rest of the system already speaks: ``None``, ``bool``, ``int``,
``float``, ``str``, ``bytes``, ``list``, ``dict`` with string keys):

``canonical-json``
    Delegates to :func:`repro.crypto.hashing.canonical_json`, so encoded
    bytes are identical to what the hashing and WAL layers already
    produce.  This is the default and keeps every fingerprint stable.

``binary``
    A deterministic tag-length-value encoding.  Dict keys are sorted (the
    same ordering rule canonical JSON uses), lengths are explicit, and no
    memoisation or interning is involved, so equal values always encode to
    equal bytes — unlike ``pickle``/``marshal``, whose string memo makes
    output depend on object identity.  Integers and short strings take a
    compact 1-byte length form; everything else a 4-byte big-endian form.

Framing helpers (:func:`write_frame` / :func:`read_frame`) wrap encoded
payloads in a 4-byte big-endian length prefix for pipe/socket transports.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from typing import Any, BinaryIO, Dict, Optional, Type

from repro.crypto.hashing import canonical_json
from repro.errors import CodecError

__all__ = [
    "WireCodec",
    "CanonicalJsonCodec",
    "BinaryCodec",
    "available_codecs",
    "get_codec",
    "write_frame",
    "read_frame",
]


class WireCodec:
    """Interface every wire codec implements.

    ``encode`` maps a value from the wire model to bytes; ``decode`` is its
    exact inverse.  Codecs are stateless and safe to share across threads
    and processes.
    """

    #: Registry name, e.g. ``"canonical-json"``.
    name: str = ""

    def encode(self, value: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError


class CanonicalJsonCodec(WireCodec):
    """The default codec: canonical JSON, UTF-8 encoded.

    Byte-compatible with :func:`repro.crypto.hashing.canonical_json`, which
    is what the hashing, WAL and gossip layers already emit — so switching
    a component onto the runtime boundary with this codec changes no bytes
    anywhere.
    """

    name = "canonical-json"

    def encode(self, value: Any) -> bytes:
        try:
            return canonical_json(value).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"canonical-json cannot encode value: {exc}") from exc

    def decode(self, data: bytes) -> Any:
        try:
            return json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CodecError(f"canonical-json cannot decode frame: {exc}") from exc


# --------------------------------------------------------------------------
# Deterministic binary TLV codec
# --------------------------------------------------------------------------
#
# Tag byte layout.  Tags with a "short" variant carry lengths < 256 in a
# single following byte; the "long" variant uses a 4-byte big-endian length.
# Small non-negative integers (0..127) encode in the tag byte itself.

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT_SHORT = 0x03      # 1-byte length + big-endian signed magnitude bytes
_T_INT_LONG = 0x04       # 4-byte length + big-endian signed magnitude bytes
_T_FLOAT = 0x05          # 8 bytes, IEEE-754 big-endian
_T_STR_SHORT = 0x06      # 1-byte length + utf-8 bytes
_T_STR_LONG = 0x07       # 4-byte length + utf-8 bytes
_T_BYTES_SHORT = 0x08    # 1-byte length + raw bytes
_T_BYTES_LONG = 0x09     # 4-byte length + raw bytes
_T_LIST_SHORT = 0x0A     # 1-byte count + items
_T_LIST_LONG = 0x0B      # 4-byte count + items
_T_DICT_SHORT = 0x0C     # 1-byte count + (key-str, value) pairs, keys sorted
_T_DICT_LONG = 0x0D      # 4-byte count + pairs
_T_SMALL_INT = 0x80      # tag | n for n in 0..127

_STRUCT_F64 = struct.Struct(">d")
_STRUCT_U32 = struct.Struct(">I")


class BinaryCodec(WireCodec):
    """Deterministic length-prefixed TLV encoding of the wire value model.

    Equal values produce equal bytes: dict keys are sorted, every length is
    explicit, floats use IEEE-754 big-endian, and integers use minimal
    big-endian two's-complement.  ``decode(encode(v)) == v`` for every
    value in the model, with the single canonical-JSON-compatible caveat
    that ``True``/``False`` stay booleans and are never conflated with
    ``1``/``0`` (distinct tags).
    """

    name = "binary"

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        try:
            _encode_into(value, out)
        except RecursionError as exc:
            raise CodecError("binary codec: value nested too deeply") from exc
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        value, offset = _decode_at(data, 0)
        if offset != len(data):
            raise CodecError(
                f"binary codec: {len(data) - offset} trailing bytes after value"
            )
        return value


def _encode_into(value: Any, out: bytearray) -> None:
    # Hot path: ordered by observed frequency in tx/WAL payloads (small
    # ints and short strings dominate).  bool is checked by identity
    # before the int branch — it is an int subclass but keeps its own tag.
    kind = type(value)
    if kind is int:
        if 0 <= value <= 127:
            out.append(_T_SMALL_INT | value)
            return
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        n = len(raw)
        if n < 256:
            out.append(_T_INT_SHORT)
            out.append(n)
        else:
            out.append(_T_INT_LONG)
            out += _STRUCT_U32.pack(n)
        out += raw
    elif kind is str:
        raw = value.encode("utf-8")
        n = len(raw)
        if n < 256:
            out.append(_T_STR_SHORT)
            out.append(n)
        else:
            out.append(_T_STR_LONG)
            out += _STRUCT_U32.pack(n)
        out += raw
    elif kind is dict:
        _encode_dict(value, out)
    elif kind is list or kind is tuple:
        n = len(value)
        if n < 256:
            out.append(_T_LIST_SHORT)
            out.append(n)
        else:
            out.append(_T_LIST_LONG)
            out += _STRUCT_U32.pack(n)
        for item in value:
            _encode_into(item, out)
    elif value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _STRUCT_F64.pack(value)
    elif isinstance(value, (bytes, bytearray)):
        n = len(value)
        if n < 256:
            out.append(_T_BYTES_SHORT)
            out.append(n)
        else:
            out.append(_T_BYTES_LONG)
            out += _STRUCT_U32.pack(n)
        out += value
    elif isinstance(value, bool):  # bool subclass via non-literal identity
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        _encode_into(int(value), out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _STRUCT_F64.pack(value)
    elif isinstance(value, str):
        _encode_into(str(value), out)
    elif isinstance(value, Mapping):
        _encode_dict(value, out)
    elif isinstance(value, (list, tuple)):
        _encode_into(list(value), out)
    else:
        raise CodecError(
            f"binary codec cannot encode value of type {type(value).__name__}"
        )


def _encode_dict(value: Any, out: bytearray) -> None:
    try:
        items = sorted(value.items())
    except TypeError as exc:
        raise CodecError("binary codec: dict keys must be sortable strings") from exc
    n = len(items)
    if n < 256:
        out.append(_T_DICT_SHORT)
        out.append(n)
    else:
        out.append(_T_DICT_LONG)
        out += _STRUCT_U32.pack(n)
    pack = _STRUCT_U32.pack
    for key, item in items:
        if type(key) is not str:
            raise CodecError(
                f"binary codec: dict keys must be str, got {type(key).__name__}"
            )
        raw = key.encode("utf-8")
        kn = len(raw)
        if kn < 256:
            out.append(_T_STR_SHORT)
            out.append(kn)
        else:
            out.append(_T_STR_LONG)
            out += pack(kn)
        out += raw
        _encode_into(item, out)


def _read_exact(data: bytes, offset: int, count: int) -> int:
    end = offset + count
    if end > len(data):
        raise CodecError("binary codec: truncated value")
    return end


def _decode_at(data: bytes, offset: int) -> "tuple[Any, int]":
    # Mirrors the encoder's frequency ordering; short length forms are
    # inlined (one byte) and only the long forms go through struct.
    size = len(data)
    if offset >= size:
        raise CodecError("binary codec: truncated value")
    tag = data[offset]
    offset += 1
    if tag & _T_SMALL_INT:
        return tag & 0x7F, offset
    if tag == _T_STR_SHORT or tag == _T_STR_LONG:
        if tag == _T_STR_SHORT:
            if offset >= size:
                raise CodecError("binary codec: truncated value")
            n = data[offset]
            offset += 1
        else:
            n, offset = _decode_long_length(data, offset)
        end = offset + n
        if end > size:
            raise CodecError("binary codec: truncated value")
        try:
            return data[offset:end].decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise CodecError("binary codec: invalid utf-8 in string") from exc
    if tag == _T_DICT_SHORT or tag == _T_DICT_LONG:
        if tag == _T_DICT_SHORT:
            if offset >= size:
                raise CodecError("binary codec: truncated value")
            n = data[offset]
            offset += 1
        else:
            n, offset = _decode_long_length(data, offset)
        result: Dict[str, Any] = {}
        for _ in range(n):
            key, offset = _decode_at(data, offset)
            if type(key) is not str:
                raise CodecError("binary codec: dict key is not a string")
            value, offset = _decode_at(data, offset)
            result[key] = value
        return result, offset
    if tag == _T_LIST_SHORT or tag == _T_LIST_LONG:
        if tag == _T_LIST_SHORT:
            if offset >= size:
                raise CodecError("binary codec: truncated value")
            n = data[offset]
            offset += 1
        else:
            n, offset = _decode_long_length(data, offset)
        items = []
        append = items.append
        for _ in range(n):
            item, offset = _decode_at(data, offset)
            append(item)
        return items, offset
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_FLOAT:
        end = offset + 8
        if end > size:
            raise CodecError("binary codec: truncated value")
        return _STRUCT_F64.unpack_from(data, offset)[0], end
    if tag == _T_INT_SHORT or tag == _T_INT_LONG:
        if tag == _T_INT_SHORT:
            if offset >= size:
                raise CodecError("binary codec: truncated value")
            n = data[offset]
            offset += 1
        else:
            n, offset = _decode_long_length(data, offset)
        end = offset + n
        if end > size:
            raise CodecError("binary codec: truncated value")
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == _T_BYTES_SHORT or tag == _T_BYTES_LONG:
        if tag == _T_BYTES_SHORT:
            if offset >= size:
                raise CodecError("binary codec: truncated value")
            n = data[offset]
            offset += 1
        else:
            n, offset = _decode_long_length(data, offset)
        end = offset + n
        if end > size:
            raise CodecError("binary codec: truncated value")
        return data[offset:end], end
    raise CodecError(f"binary codec: unknown tag 0x{tag:02x}")


def _decode_long_length(data: bytes, offset: int) -> "tuple[int, int]":
    end = _read_exact(data, offset, 4)
    return _STRUCT_U32.unpack_from(data, offset)[0], end


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

_CODECS: Dict[str, Type[WireCodec]] = {
    CanonicalJsonCodec.name: CanonicalJsonCodec,
    BinaryCodec.name: BinaryCodec,
}


def available_codecs() -> "tuple[str, ...]":
    """Names accepted by :func:`get_codec`, in registry order."""
    return tuple(_CODECS)


def get_codec(name: "str | WireCodec | None") -> WireCodec:
    """Resolve a codec by registry name.

    Accepts an existing :class:`WireCodec` instance (returned as-is) and
    ``None`` (the default ``canonical-json`` codec), so call sites can
    thread an optional ``wire_codec`` argument straight through.
    """
    if name is None:
        return CanonicalJsonCodec()
    if isinstance(name, WireCodec):
        return name
    try:
        return _CODECS[name]()
    except KeyError:
        raise CodecError(
            f"unknown wire codec {name!r}; available: {', '.join(_CODECS)}"
        ) from None


# --------------------------------------------------------------------------
# Length-prefixed framing
# --------------------------------------------------------------------------

#: Maximum frame payload the runtime will read: a defence against a
#: corrupted length prefix allocating gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def write_frame(stream: BinaryIO, payload: bytes) -> int:
    """Write ``payload`` with a 4-byte big-endian length prefix.

    Returns the total number of bytes written (prefix included).
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame of {len(payload)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    header = _STRUCT_U32.pack(len(payload))
    stream.write(header)
    stream.write(payload)
    return len(header) + len(payload)


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """Read one length-prefixed frame from ``stream``.

    Returns ``None`` on clean end-of-stream (no header bytes at all) and
    raises :class:`CodecError` on a torn or oversized frame — the caller
    decides whether a torn tail is corruption (sockets) or a crash
    artefact to repair (WAL segments).
    """
    header = _read_all(stream, 4)
    if header is None:
        return None
    if len(header) < 4:
        raise CodecError("torn frame header")
    (length,) = _STRUCT_U32.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame length {length} exceeds limit {MAX_FRAME_BYTES}")
    payload = _read_all(stream, length)
    if payload is None or len(payload) < length:
        raise CodecError("torn frame payload")
    return payload


def _read_all(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, tolerating short reads from sockets.

    Returns ``None`` if end-of-stream is hit before the first byte, or the
    (possibly short) bytes read before EOF otherwise.
    """
    if count == 0:
        return b""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    if not chunks:
        return None
    return b"".join(chunks)
