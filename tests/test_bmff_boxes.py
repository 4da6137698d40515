"""ISO-BMFF box model: round trips, typed boxes, error handling."""

import struct
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bmff.boxes import (
    MAX_SAIZ_SAMPLES,
    Box,
    BoxParseError,
    FrmaBox,
    PsshBox,
    SaioBox,
    SaizBox,
    SchmBox,
    SencBox,
    SencEntry,
    SubsampleRange,
    TencBox,
    find_boxes,
    find_first,
    parse_boxes,
    serialize_boxes,
)


# Malformed boxes that once escaped as raw struct.error, ValueError or
# MemoryError, or parsed silently; each must now raise BoxParseError.
# The senc ones are minimized crashers from a mutation fuzz of packager
# segments; the rest are hand-built minimal boxes.
CRASHERS = sorted((Path(__file__).parent / "fixtures" / "bmff").glob("*.bin"))


def _round_trip(boxes, **kwargs):
    return parse_boxes(serialize_boxes(boxes), **kwargs)


def _fullbox(box_type: bytes, flags: int, payload: bytes) -> bytes:
    body = bytes([0]) + flags.to_bytes(3, "big") + payload
    return struct.pack(">I", 8 + len(body)) + box_type + body


class TestGenericBox:
    def test_leaf_round_trip(self):
        box = Box(box_type=b"mdat", payload=b"hello world")
        (parsed,) = _round_trip([box])
        assert parsed.box_type == b"mdat"
        assert parsed.payload == b"hello world"

    def test_container_round_trip(self):
        tree = Box(
            box_type=b"moov",
            children=[Box(box_type=b"mdat", payload=b"x"), Box(box_type=b"free")],
        )
        (parsed,) = _round_trip([tree])
        assert [c.box_type for c in parsed.children] == [b"mdat", b"free"]

    def test_nested_containers(self):
        tree = Box(
            box_type=b"moov",
            children=[
                Box(
                    box_type=b"trak",
                    children=[Box(box_type=b"mdia", children=[])],
                )
            ],
        )
        (parsed,) = _round_trip([tree])
        assert parsed.find(b"trak", b"mdia")

    def test_multiple_top_level(self):
        boxes = [Box(box_type=b"ftyp", payload=b"a"), Box(box_type=b"mdat")]
        parsed = _round_trip(boxes)
        assert [b.box_type for b in parsed] == [b"ftyp", b"mdat"]

    def test_bad_type_length_rejected(self):
        with pytest.raises(ValueError, match="4 bytes"):
            Box(box_type=b"abc")

    def test_fourcc(self):
        assert Box(box_type=b"moov").fourcc == "moov"

    @given(payload=st.binary(max_size=100))
    def test_payload_round_trip_property(self, payload):
        (parsed,) = _round_trip([Box(box_type=b"blob", payload=payload)])
        assert parsed.payload == payload


class TestParseErrors:
    def test_truncated_header(self):
        with pytest.raises(BoxParseError, match="truncated"):
            parse_boxes(b"\x00\x00\x00")

    def test_size_too_small(self):
        with pytest.raises(BoxParseError, match="bad box size"):
            parse_boxes(b"\x00\x00\x00\x04mdat")

    def test_size_beyond_data(self):
        with pytest.raises(BoxParseError, match="bad box size"):
            parse_boxes(b"\x00\x00\x00\xffmdatshort")

    def test_truncated_fullbox(self):
        blob = b"\x00\x00\x00\x0apssh\x00\x00"
        with pytest.raises(BoxParseError):
            parse_boxes(blob)

    @pytest.mark.parametrize("path", CRASHERS, ids=lambda p: p.stem)
    def test_regression_fixture_fails_closed(self, path):
        with pytest.raises(BoxParseError):
            parse_boxes(path.read_bytes())

    def test_regression_fixtures_present(self):
        assert {"senc", "saiz", "saio", "pssh", "tenc", "schm"} <= {
            p.stem.split("-")[0] for p in CRASHERS
        }

    @pytest.mark.parametrize("size", range(0, 4))
    def test_saio_payload_shorter_than_count(self, size):
        with pytest.raises(BoxParseError, match="saio payload too short"):
            parse_boxes(_fullbox(b"saio", 0, bytes(size)))

    @pytest.mark.parametrize("count", [2, 3, 0xFFFFFFFF])
    def test_saio_offset_table_shorter_than_count(self, count):
        payload = struct.pack(">II", count, 0)  # room for one offset
        with pytest.raises(BoxParseError, match="shorter than its count"):
            parse_boxes(_fullbox(b"saio", 0, payload))

    @pytest.mark.parametrize("count", [2, 17, 0xFFFFFFFF])
    def test_pssh_v1_key_id_count_past_payload(self, count):
        # Room for one key id and the data length, not for `count` ids.
        body = b"\x01\x00\x00\x00" + bytes(16) + struct.pack(">I", count)
        body += bytes(16) + struct.pack(">I", 0)
        blob = struct.pack(">I", 8 + len(body)) + b"pssh" + body
        with pytest.raises(BoxParseError, match="key id count"):
            parse_boxes(blob)

    @pytest.mark.parametrize("iv_size", [1, 4, 7, 9, 15, 17, 255])
    def test_tenc_iv_size_outside_0_8_16(self, iv_size):
        payload = bytes([0, 1, iv_size]) + bytes(16)
        with pytest.raises(BoxParseError, match="iv_size"):
            parse_boxes(_fullbox(b"tenc", 0, payload))

    @pytest.mark.parametrize("size", range(0, 8))
    def test_schm_payload_shorter_than_8(self, size):
        with pytest.raises(BoxParseError, match="schm payload too short"):
            parse_boxes(_fullbox(b"schm", 0, b"cenc\x00\x01\x00"[:size]))

    def test_saiz_default_size_count_is_capped(self):
        at_cap = b"\x08" + struct.pack(">I", MAX_SAIZ_SAMPLES)
        (box,) = parse_boxes(_fullbox(b"saiz", 0, at_cap))
        assert box.sample_sizes == [8] * MAX_SAIZ_SAMPLES
        over = b"\x08" + struct.pack(">I", MAX_SAIZ_SAMPLES + 1)
        with pytest.raises(BoxParseError, match="sample count"):
            parse_boxes(_fullbox(b"saiz", 0, over))

    def test_senc_truncated_subsample_count(self):
        # One entry: 8-byte IV, then only one byte of the 2-byte count.
        blob = _fullbox(b"senc", 0x2, struct.pack(">I", 1) + bytes(8) + b"\x00")
        with pytest.raises(BoxParseError, match="subsample count"):
            parse_boxes(blob)

    @pytest.mark.parametrize("cut", range(1, 6))
    def test_senc_truncated_subsample_entry(self, cut):
        entry = SencEntry(iv=bytes(8), subsamples=[SubsampleRange(16, 32)])
        blob = SencBox(box_type=b"senc", entries=[entry]).serialize()
        truncated = struct.pack(">I", len(blob) - cut) + blob[4:-cut]
        with pytest.raises(BoxParseError, match="subsample table"):
            parse_boxes(truncated)

    @pytest.mark.parametrize("size", range(0, 5))
    def test_saiz_payload_shorter_than_header(self, size):
        with pytest.raises(BoxParseError, match="saiz payload too short"):
            parse_boxes(_fullbox(b"saiz", 0, bytes(size)))

    def test_saiz_size_table_shorter_than_count(self):
        payload = b"\x00" + struct.pack(">I", 3) + bytes([8, 14])
        with pytest.raises(BoxParseError, match="sample size table"):
            parse_boxes(_fullbox(b"saiz", 0, payload))


class TestTenc:
    def test_round_trip(self):
        kid = bytes(range(16))
        tenc = TencBox(box_type=b"tenc", is_protected=True, iv_size=8, default_kid=kid)
        (parsed,) = _round_trip([tenc])
        assert isinstance(parsed, TencBox)
        assert parsed.default_kid == kid
        assert parsed.iv_size == 8
        assert parsed.is_protected

    def test_unprotected_round_trip(self):
        tenc = TencBox(
            box_type=b"tenc", is_protected=False, iv_size=0, default_kid=bytes(16)
        )
        (parsed,) = _round_trip([tenc])
        assert not parsed.is_protected

    def test_rejects_bad_kid(self):
        with pytest.raises(ValueError, match="16 bytes"):
            TencBox(box_type=b"tenc", default_kid=bytes(8))

    def test_rejects_bad_iv_size(self):
        with pytest.raises(ValueError, match="iv_size"):
            TencBox(box_type=b"tenc", iv_size=12, default_kid=bytes(16))


class TestSenc:
    def test_round_trip_with_subsamples(self):
        entries = [
            SencEntry(iv=bytes(8), subsamples=[SubsampleRange(10, 90)]),
            SencEntry(iv=bytes(range(8)), subsamples=[SubsampleRange(5, 20)]),
        ]
        senc = SencBox(box_type=b"senc", entries=entries, iv_size=8)
        (parsed,) = _round_trip([senc], iv_size_hint=8)
        assert isinstance(parsed, SencBox)
        assert len(parsed.entries) == 2
        assert parsed.entries[0].subsamples[0].protected_bytes == 90
        assert parsed.entries[1].iv == bytes(range(8))

    def test_round_trip_without_subsamples(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(8))], iv_size=8
        )
        (parsed,) = _round_trip([senc], iv_size_hint=8)
        assert parsed.entries[0].subsamples == []
        assert parsed.flags == 0

    def test_16_byte_iv(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(16))], iv_size=16
        )
        (parsed,) = _round_trip([senc], iv_size_hint=16)
        assert len(parsed.entries[0].iv) == 16

    def test_iv_length_mismatch_rejected_on_serialize(self):
        senc = SencBox(
            box_type=b"senc", entries=[SencEntry(iv=bytes(4))], iv_size=8
        )
        with pytest.raises(ValueError, match="IV length"):
            senc.serialize()


class TestPssh:
    def test_v1_round_trip(self):
        kids = [bytes([i]) * 16 for i in range(3)]
        pssh = PsshBox(
            box_type=b"pssh", system_id=bytes(16), key_ids=kids, data=b"init"
        )
        (parsed,) = _round_trip([pssh])
        assert isinstance(parsed, PsshBox)
        assert parsed.version == 1
        assert parsed.key_ids == kids
        assert parsed.data == b"init"

    def test_v0_round_trip(self):
        pssh = PsshBox(box_type=b"pssh", system_id=bytes(16), data=b"blob")
        (parsed,) = _round_trip([pssh])
        assert parsed.version == 0
        assert parsed.key_ids == []
        assert parsed.data == b"blob"

    def test_rejects_bad_system_id(self):
        with pytest.raises(ValueError, match="system_id"):
            PsshBox(box_type=b"pssh", system_id=bytes(8))

    def test_rejects_bad_key_id_on_serialize(self):
        pssh = PsshBox(box_type=b"pssh", system_id=bytes(16), key_ids=[bytes(4)])
        with pytest.raises(ValueError, match="key id"):
            pssh.serialize()


class TestAuxBoxes:
    def test_saiz_uniform(self):
        saiz = SaizBox(box_type=b"saiz", sample_sizes=[8, 8, 8])
        (parsed,) = _round_trip([saiz])
        assert parsed.sample_sizes == [8, 8, 8]

    def test_saiz_varied(self):
        saiz = SaizBox(box_type=b"saiz", sample_sizes=[8, 14, 20])
        (parsed,) = _round_trip([saiz])
        assert parsed.sample_sizes == [8, 14, 20]

    def test_saio(self):
        saio = SaioBox(box_type=b"saio", offsets=[0, 100, 9999])
        (parsed,) = _round_trip([saio])
        assert parsed.offsets == [0, 100, 9999]

    def test_frma(self):
        frma = FrmaBox(box_type=b"frma", original_format=b"avc1")
        (parsed,) = _round_trip([frma])
        assert parsed.original_format == b"avc1"

    def test_schm(self):
        schm = SchmBox(box_type=b"schm", scheme_type=b"cenc")
        (parsed,) = _round_trip([schm])
        assert parsed.scheme_type == b"cenc"
        assert parsed.scheme_version == 0x00010000


class TestFind:
    def _tree(self):
        return [
            Box(
                box_type=b"moov",
                children=[
                    Box(box_type=b"trak", children=[Box(box_type=b"mdia")]),
                    Box(box_type=b"trak", children=[Box(box_type=b"mdia")]),
                    PsshBox(box_type=b"pssh", system_id=bytes(16)),
                ],
            )
        ]

    def test_find_boxes_multiple(self):
        assert len(find_boxes(self._tree(), b"moov", b"trak")) == 2

    def test_find_deep_path(self):
        assert len(find_boxes(self._tree(), b"moov", b"trak", b"mdia")) == 2

    def test_find_first(self):
        assert find_first(self._tree(), b"moov", b"pssh") is not None

    def test_find_first_missing(self):
        assert find_first(self._tree(), b"moov", b"mvex") is None
