"""ISO Base Media File Format (ISO/IEC 14496-12) box model.

Implements the subset of MP4 boxes the study needs to build, parse and
inspect protected DASH segments:

- plain containers (``moov``, ``trak``, ``mdia``, ``minf``, ``stbl``,
  ``moof``, ``traf``, ``sinf``, ``schi`` …);
- leaf boxes carried opaquely (``mdat``, ``ftyp`` payloads …);
- typed full boxes needed by CENC (``tenc``, ``senc``, ``saiz``,
  ``saio``, ``pssh``, ``frma``, ``schm``).

The model is deliberately round-trip faithful: ``parse(serialize(x))``
reproduces the tree, and the content-protection audit in
:mod:`repro.core.content_audit` decides "is this asset encrypted?" by
parsing these structures, exactly as the paper inspects downloaded
assets rather than trusting any metadata.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

__all__ = [
    "Box",
    "FullBox",
    "TencBox",
    "SencBox",
    "SencEntry",
    "SubsampleRange",
    "PsshBox",
    "SaizBox",
    "SaioBox",
    "FrmaBox",
    "SchmBox",
    "parse_boxes",
    "serialize_boxes",
    "find_boxes",
    "find_first",
    "BoxParseError",
    "MAX_SAIZ_SAMPLES",
]

# Box types that contain child boxes rather than raw payload.
CONTAINER_TYPES = {
    b"moov",
    b"trak",
    b"mdia",
    b"minf",
    b"stbl",
    b"moof",
    b"traf",
    b"mvex",
    b"sinf",
    b"schi",
    b"edts",
    b"dinf",
    b"udta",
}


class BoxParseError(ValueError):
    """Raised when a byte stream is not well-formed ISO-BMFF."""


# Most samples a ``saiz`` box with a default size may declare. Its
# count is not bounded by any table in the payload, so an untrusted
# 32-bit count would otherwise allocate gigabytes. A fragment this
# long is over 18 minutes of 60 fps video.
MAX_SAIZ_SAMPLES = 1 << 16


@dataclass
class Box:
    """A generic MP4 box: 4-char type plus payload and/or children."""

    box_type: bytes
    payload: bytes = b""
    children: list["Box"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.box_type) != 4:
            raise ValueError(f"box type must be 4 bytes, got {self.box_type!r}")

    @property
    def fourcc(self) -> str:
        return self.box_type.decode("latin-1")

    def body(self) -> bytes:
        """Payload followed by serialized children."""
        return self.payload + b"".join(c.serialize() for c in self.children)

    def serialize(self) -> bytes:
        body = self.body()
        return struct.pack(">I", 8 + len(body)) + self.box_type + body

    def find(self, *path: bytes) -> list["Box"]:
        """All descendant boxes matching a type path, e.g.
        ``segment.find(b"moof", b"traf", b"senc")``."""
        if not path:
            return [self]
        matches: list[Box] = []
        for child in self.children:
            if child.box_type == path[0]:
                matches.extend(child.find(*path[1:]))
        return matches


@dataclass
class FullBox(Box):
    """Box with a version byte and 24-bit flags."""

    version: int = 0
    flags: int = 0

    def body(self) -> bytes:
        header = struct.pack(">B", self.version) + self.flags.to_bytes(3, "big")
        return header + self.payload + b"".join(c.serialize() for c in self.children)


@dataclass
class TencBox(FullBox):
    """Track Encryption box (ISO/IEC 23001-7 §8.2).

    Declares the default protection parameters for a track: whether
    samples are protected, the per-sample IV size, and the default KID
    the license must cover.
    """

    is_protected: bool = True
    iv_size: int = 8
    default_kid: bytes = bytes(16)

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.default_kid) != 16:
            raise ValueError("default_kid must be 16 bytes")
        if self.iv_size not in (0, 8, 16):
            raise ValueError("iv_size must be 0, 8 or 16")

    def body(self) -> bytes:
        self.payload = struct.pack(
            ">BBB", 0, 1 if self.is_protected else 0, self.iv_size
        ) + self.default_kid
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "TencBox":
        if len(payload) < 19:
            raise BoxParseError("tenc payload too short")
        __, protected, iv_size = struct.unpack(">BBB", payload[:3])
        if iv_size not in (0, 8, 16):
            raise BoxParseError(f"tenc iv_size {iv_size} not 0, 8 or 16")
        return cls(
            box_type=b"tenc",
            version=version,
            flags=flags,
            is_protected=bool(protected),
            iv_size=iv_size,
            default_kid=payload[3:19],
        )


@dataclass
class SubsampleRange:
    """One (clear, protected) byte-range pair inside a sample."""

    clear_bytes: int
    protected_bytes: int


@dataclass
class SencEntry:
    """Per-sample encryption data: IV plus optional subsample map."""

    iv: bytes
    subsamples: list[SubsampleRange] = field(default_factory=list)


@dataclass
class SencBox(FullBox):
    """Sample Encryption box (ISO/IEC 23001-7 §7.2).

    flag 0x2 signals the presence of subsample ranges.
    """

    entries: list[SencEntry] = field(default_factory=list)
    iv_size: int = 8

    def body(self) -> bytes:
        has_subsamples = any(e.subsamples for e in self.entries)
        self.flags = 0x2 if has_subsamples else 0x0
        out = bytearray(struct.pack(">I", len(self.entries)))
        for entry in self.entries:
            if len(entry.iv) != self.iv_size:
                raise ValueError(
                    f"IV length {len(entry.iv)} != declared iv_size {self.iv_size}"
                )
            out.extend(entry.iv)
            if has_subsamples:
                out.extend(struct.pack(">H", len(entry.subsamples)))
                for sub in entry.subsamples:
                    out.extend(struct.pack(">HI", sub.clear_bytes, sub.protected_bytes))
        self.payload = bytes(out)
        return super().body()

    @classmethod
    def parse_payload(
        cls, version: int, flags: int, payload: bytes, iv_size: int = 8
    ) -> "SencBox":
        if len(payload) < 4:
            raise BoxParseError("senc payload too short")
        (count,) = struct.unpack(">I", payload[:4])
        offset = 4
        entries: list[SencEntry] = []
        for _ in range(count):
            iv = payload[offset : offset + iv_size]
            if len(iv) != iv_size:
                raise BoxParseError("senc truncated IV")
            offset += iv_size
            subsamples: list[SubsampleRange] = []
            if flags & 0x2:
                if offset + 2 > len(payload):
                    raise BoxParseError("senc truncated subsample count")
                (sub_count,) = struct.unpack(">H", payload[offset : offset + 2])
                offset += 2
                for _ in range(sub_count):
                    if offset + 6 > len(payload):
                        raise BoxParseError("senc truncated subsample table")
                    clear, protected = struct.unpack(
                        ">HI", payload[offset : offset + 6]
                    )
                    offset += 6
                    subsamples.append(SubsampleRange(clear, protected))
            entries.append(SencEntry(iv=iv, subsamples=subsamples))
        return cls(
            box_type=b"senc",
            version=version,
            flags=flags,
            entries=entries,
            iv_size=iv_size,
        )


@dataclass
class PsshBox(FullBox):
    """Protection System Specific Header (ISO/IEC 23001-7 §8.1).

    Version 1 carries the key IDs in the box itself; ``data`` holds the
    DRM-specific init data (for Widevine, the serialized request blob).
    """

    system_id: bytes = bytes(16)
    key_ids: list[bytes] = field(default_factory=list)
    data: bytes = b""

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.system_id) != 16:
            raise ValueError("system_id must be 16 bytes")

    def body(self) -> bytes:
        self.version = 1 if self.key_ids else 0
        out = bytearray(self.system_id)
        if self.version == 1:
            out.extend(struct.pack(">I", len(self.key_ids)))
            for kid in self.key_ids:
                if len(kid) != 16:
                    raise ValueError("key id must be 16 bytes")
                out.extend(kid)
        out.extend(struct.pack(">I", len(self.data)))
        out.extend(self.data)
        self.payload = bytes(out)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "PsshBox":
        if len(payload) < 20:
            raise BoxParseError("pssh payload too short")
        system_id = payload[:16]
        offset = 16
        key_ids: list[bytes] = []
        if version >= 1:
            (count,) = struct.unpack(">I", payload[offset : offset + 4])
            offset += 4
            # The key ids and the 4-byte data length must both fit.
            if offset + 16 * count + 4 > len(payload):
                raise BoxParseError("pssh key id count past the payload")
            for _ in range(count):
                key_ids.append(payload[offset : offset + 16])
                offset += 16
        (data_len,) = struct.unpack(">I", payload[offset : offset + 4])
        offset += 4
        data = payload[offset : offset + data_len]
        if len(data) != data_len:
            raise BoxParseError("pssh truncated data")
        return cls(
            box_type=b"pssh",
            version=version,
            flags=flags,
            system_id=system_id,
            key_ids=key_ids,
            data=data,
        )


@dataclass
class SaizBox(FullBox):
    """Sample Auxiliary Information Sizes box."""

    sample_sizes: list[int] = field(default_factory=list)

    def body(self) -> bytes:
        uniform = len(set(self.sample_sizes)) == 1 if self.sample_sizes else True
        default_size = self.sample_sizes[0] if uniform and self.sample_sizes else 0
        out = bytearray(struct.pack(">BI", default_size, len(self.sample_sizes)))
        if not uniform:
            out[0:1] = b"\x00"
            out.extend(bytes(self.sample_sizes))
        self.payload = bytes(out)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SaizBox":
        if len(payload) < 5:
            raise BoxParseError("saiz payload too short")
        default_size, count = struct.unpack(">BI", payload[:5])
        if default_size:
            # No table bounds the count here, so cap it before allocating.
            if count > MAX_SAIZ_SAMPLES:
                raise BoxParseError(
                    f"saiz sample count {count} above {MAX_SAIZ_SAMPLES}"
                )
            sizes = [default_size] * count
        else:
            sizes = list(payload[5 : 5 + count])
            if len(sizes) != count:
                raise BoxParseError("saiz truncated sample size table")
        return cls(box_type=b"saiz", version=version, flags=flags, sample_sizes=sizes)


@dataclass
class SaioBox(FullBox):
    """Sample Auxiliary Information Offsets box."""

    offsets: list[int] = field(default_factory=list)

    def body(self) -> bytes:
        out = bytearray(struct.pack(">I", len(self.offsets)))
        for off in self.offsets:
            out.extend(struct.pack(">I", off))
        self.payload = bytes(out)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SaioBox":
        if len(payload) < 4:
            raise BoxParseError("saio payload too short")
        (count,) = struct.unpack(">I", payload[:4])
        if 4 + 4 * count > len(payload):
            raise BoxParseError("saio offset table shorter than its count")
        offsets = [
            struct.unpack(">I", payload[4 + 4 * i : 8 + 4 * i])[0]
            for i in range(count)
        ]
        return cls(box_type=b"saio", version=version, flags=flags, offsets=offsets)


@dataclass
class FrmaBox(Box):
    """Original Format box: the pre-encryption sample-entry fourcc."""

    original_format: bytes = b"mp4v"

    def body(self) -> bytes:
        self.payload = self.original_format
        return super().body()

    @classmethod
    def parse_payload(cls, payload: bytes) -> "FrmaBox":
        return cls(box_type=b"frma", original_format=payload[:4])


@dataclass
class SchmBox(FullBox):
    """Scheme Type box: which protection scheme applies (``cenc``…)."""

    scheme_type: bytes = b"cenc"
    scheme_version: int = 0x00010000

    def body(self) -> bytes:
        self.payload = self.scheme_type + struct.pack(">I", self.scheme_version)
        return super().body()

    @classmethod
    def parse_payload(cls, version: int, flags: int, payload: bytes) -> "SchmBox":
        if len(payload) < 8:
            raise BoxParseError("schm payload too short")
        return cls(
            box_type=b"schm",
            version=version,
            flags=flags,
            scheme_type=payload[:4],
            scheme_version=struct.unpack(">I", payload[4:8])[0],
        )


_FULLBOX_TYPES = {b"tenc", b"senc", b"pssh", b"saiz", b"saio", b"schm"}


def _parse_one(data: bytes, offset: int, *, iv_size_hint: int = 8) -> tuple[Box, int]:
    if offset + 8 > len(data):
        raise BoxParseError("truncated box header")
    (size,) = struct.unpack(">I", data[offset : offset + 4])
    box_type = data[offset + 4 : offset + 8]
    if size < 8 or offset + size > len(data):
        raise BoxParseError(f"bad box size {size} for {box_type!r}")
    body = data[offset + 8 : offset + size]

    if box_type in CONTAINER_TYPES:
        children = parse_boxes(body, iv_size_hint=iv_size_hint)
        return Box(box_type=box_type, children=children), offset + size

    if box_type in _FULLBOX_TYPES:
        if len(body) < 4:
            raise BoxParseError(f"truncated fullbox {box_type!r}")
        version = body[0]
        flags = int.from_bytes(body[1:4], "big")
        payload = body[4:]
        if box_type == b"tenc":
            return TencBox.parse_payload(version, flags, payload), offset + size
        if box_type == b"senc":
            return (
                SencBox.parse_payload(version, flags, payload, iv_size=iv_size_hint),
                offset + size,
            )
        if box_type == b"pssh":
            return PsshBox.parse_payload(version, flags, payload), offset + size
        if box_type == b"saiz":
            return SaizBox.parse_payload(version, flags, payload), offset + size
        if box_type == b"saio":
            return SaioBox.parse_payload(version, flags, payload), offset + size
        if box_type == b"schm":
            return SchmBox.parse_payload(version, flags, payload), offset + size

    if box_type == b"frma":
        return FrmaBox.parse_payload(body), offset + size

    return Box(box_type=box_type, payload=body), offset + size


def parse_boxes(data: bytes, *, iv_size_hint: int = 8) -> list[Box]:
    """Parse a byte string into a list of top-level boxes.

    ``iv_size_hint`` resolves the one genuine ambiguity of the format:
    ``senc`` cannot be parsed without knowing the track's IV size from
    ``tenc``. Callers inspecting full files should pass the value read
    from the init segment; the default (8) matches this library's
    builder output.
    """
    boxes: list[Box] = []
    offset = 0
    while offset < len(data):
        box, offset = _parse_one(data, offset, iv_size_hint=iv_size_hint)
        boxes.append(box)
    return boxes


def serialize_boxes(boxes: list[Box]) -> bytes:
    """Serialize a list of boxes back to bytes."""
    return b"".join(box.serialize() for box in boxes)


def find_boxes(boxes: list[Box], *path: bytes) -> list[Box]:
    """Search a box forest for all boxes matching the type path."""
    matches: list[Box] = []
    for box in boxes:
        if box.box_type == path[0]:
            matches.extend(box.find(*path[1:]))
    return matches


def find_first(boxes: list[Box], *path: bytes) -> Box | None:
    """First match of :func:`find_boxes`, or None."""
    found = find_boxes(boxes, *path)
    return found[0] if found else None
