"""Tests for repro.common.encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.common.encoding import (
    Decoder,
    Encoder,
    decode_uint,
    encode_bool,
    encode_bytes,
    encode_list,
    encode_str,
    encode_uint,
)


class TestUintEncoding:
    def test_round_trip(self):
        assert decode_uint(encode_uint(123456, 8)) == 123456

    def test_big_endian(self):
        assert encode_uint(1, 2) == b"\x00\x01"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_uint(-1)

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            encode_uint(256, 1)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_round_trip_property(self, value):
        assert decode_uint(encode_uint(value, 8)) == value


class TestBytesEncoding:
    def test_round_trip(self):
        data = encode_bytes(b"hello")
        assert Decoder(data).read_bytes() == b"hello"

    def test_empty(self):
        assert Decoder(encode_bytes(b"")).read_bytes() == b""

    def test_length_prefix_is_four_bytes(self):
        assert len(encode_bytes(b"ab")) == 4 + 2

    @given(st.binary(max_size=200))
    def test_round_trip_property(self, payload):
        assert Decoder(encode_bytes(payload)).read_bytes() == payload


class TestListEncoding:
    def test_round_trip(self):
        items = [b"a", b"bb", b""]
        assert Decoder(encode_list(items)).read_list() == items

    def test_empty_list(self):
        assert Decoder(encode_list([])).read_list() == []

    @given(st.lists(st.binary(max_size=20), max_size=20))
    def test_round_trip_property(self, items):
        assert Decoder(encode_list(items)).read_list() == items


class TestDecoder:
    def test_sequential_reads(self):
        data = encode_uint(7, 8) + encode_bool(True) + encode_str("hi")
        d = Decoder(data)
        assert d.read_uint(8) == 7
        assert d.read_bool() is True
        assert d.read_str() == "hi"
        assert d.finished()

    def test_underrun_raises(self):
        with pytest.raises(ValueError):
            Decoder(b"\x00").read_uint(8)

    def test_remaining_tracks_position(self):
        d = Decoder(b"\x00" * 10)
        d.read_uint(4)
        assert d.remaining == 6


class TestHelpers:
    def test_injectivity_of_framed_fields(self):
        # Length prefixes prevent boundary ambiguity: ("ab","c") != ("a","bc").
        assert encode_bytes(b"ab") + encode_bytes(b"c") != encode_bytes(
            b"a"
        ) + encode_bytes(b"bc")


class TestEncoder:
    """The bytearray builder must be byte-identical to the encode_* helpers
    — cached serializations were captured with the helpers before the
    builder existed, and ids must not shift."""

    def test_matches_helper_functions(self):
        built = (
            Encoder()
            .uint(7, 8)
            .bytes(b"payload")
            .str("hi")
            .bool(True)
            .list([b"a", b"bc"])
            .getvalue()
        )
        expected = (
            encode_uint(7, 8)
            + encode_bytes(b"payload")
            + encode_str("hi")
            + encode_bool(True)
            + encode_list([b"a", b"bc"])
        )
        assert built == expected

    def test_raw_appends_verbatim(self):
        assert Encoder().raw(b"\x00\xff").getvalue() == b"\x00\xff"

    def test_chaining_returns_self(self):
        enc = Encoder()
        assert enc.uint(1, 1) is enc
        assert enc.raw(b"") is enc

    def test_len_tracks_bytes(self):
        enc = Encoder().uint(1, 4).bytes(b"abc")
        assert len(enc) == 4 + 4 + 3

    def test_uint_rejects_negative(self):
        with pytest.raises(ValueError):
            Encoder().uint(-1, 8)

    def test_uint_rejects_overflow(self):
        with pytest.raises(ValueError):
            Encoder().uint(256, 1)

    def test_getvalue_is_immutable_bytes(self):
        enc = Encoder().uint(1, 1)
        snapshot = enc.getvalue()
        enc.uint(2, 1)
        assert snapshot == b"\x01"
        assert enc.getvalue() == b"\x01\x02"

    @given(st.lists(st.binary(max_size=40), max_size=8))
    def test_list_matches_encode_list(self, items):
        assert Encoder().list(items).getvalue() == encode_list(items)
