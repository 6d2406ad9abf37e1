"""Tests for repro.common.types."""

import pytest

from repro.common.types import ADDRESS_SIZE, Address, Hash


class TestHash:
    def test_requires_exactly_32_bytes(self):
        with pytest.raises(ValueError):
            Hash(b"short")
        with pytest.raises(ValueError):
            Hash(b"x" * 33)

    def test_rejects_non_bytes(self):
        with pytest.raises(ValueError):
            Hash("00" * 32)  # type: ignore[arg-type]

    def test_zero_is_all_zero(self):
        assert Hash.zero().value == b"\x00" * 32
        assert Hash.zero().is_zero()

    def test_nonzero_hash_is_not_zero(self):
        assert not Hash(b"\x01" + b"\x00" * 31).is_zero()

    def test_hex_round_trip(self):
        h = Hash(bytes(range(32)))
        assert Hash(bytes.fromhex(h.hex)) == h

    def test_short_prefix(self):
        h = Hash(bytes(range(32)))
        assert h.short(4) == h.hex[:4]

    def test_hashable_and_equal(self):
        a = Hash(b"\x07" * 32)
        b = Hash(b"\x07" * 32)
        assert a == b
        assert len({a, b}) == 1

    def test_ordering_is_bytewise(self):
        lo = Hash(b"\x00" * 32)
        hi = Hash(b"\xff" + b"\x00" * 31)
        assert lo < hi

    def test_bytes_conversion(self):
        h = Hash(b"\x09" * 32)
        assert bytes(h) == b"\x09" * 32


class TestAddress:
    def test_requires_exactly_20_bytes(self):
        with pytest.raises(ValueError):
            Address(b"x" * 19)
        with pytest.raises(ValueError):
            Address(b"x" * 21)

    def test_hex_round_trip(self):
        a = Address(bytes(range(ADDRESS_SIZE)))
        assert Address(bytes.fromhex(a.hex)) == a

    def test_zero(self):
        assert Address.zero().value == b"\x00" * 20

    def test_distinct_addresses_unequal(self):
        assert Address(b"\x01" * 20) != Address(b"\x02" * 20)


RAW_HASH = bytes(range(32))
RAW_ADDRESS = bytes(range(100, 120))
IDS = [(Hash, RAW_HASH), (Address, RAW_ADDRESS)]


@pytest.mark.parametrize("cls, raw", IDS)
class TestBytesContract:
    """``Hash`` and ``Address`` are ``bytes``: what that must keep (the
    hash value, the rendering, the class across a pickle) and the one
    thing it loosens (equality with the raw bytes)."""

    def test_hash_is_the_hash_of_the_raw_bytes(self, cls, raw):
        # Pins fingerprint stability: dict and set iteration order over
        # ids is what it was when the classes wrapped the bytes.
        assert hash(cls(raw)) == hash(raw)
        assert "__hash__" not in vars(cls) and "__eq__" not in vars(cls)
        assert cls.__hash__ is bytes.__hash__ and cls.__eq__ is bytes.__eq__

    def test_equals_the_raw_bytes_it_wraps(self, cls, raw):
        assert cls(raw) == raw and raw == cls(raw)
        assert {cls(raw): 1}[raw] == 1

    def test_ordering_is_byte_ordering(self, cls, raw):
        raws = [bytes([b]) * len(raw) for b in (9, 200, 0, 77)] + [raw]
        assert [bytes(x) for x in sorted(cls(r) for r in raws)] == sorted(raws)

    def test_rewrapping_is_equal(self, cls, raw):
        again = cls(cls(raw))
        assert again == cls(raw) and type(again) is cls

    def test_wrong_length_and_non_bytes_keep_the_old_message(self, cls, raw):
        for bad in (raw[:-1], raw + b"\x00", b"", raw.hex(), bytearray(raw),
                    None, 7):
            with pytest.raises(ValueError) as err:
                cls(bad)
            assert str(err.value) == (
                f"{cls.__name__} must be {len(raw)} bytes, got {bad!r}")

    def test_no_instance_dict_and_no_attribute_assignment(self, cls, raw):
        value = cls(raw)
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.value = raw
        with pytest.raises(AttributeError):
            value.note = "x"

    def test_pickle_and_copy_keep_the_class(self, cls, raw):
        import copy
        import pickle

        value = cls(raw)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is cls and back == value
        assert type(copy.deepcopy([value])[0]) is cls

    def test_str_repr_and_fstring_render_the_short_form(self, cls, raw):
        value = cls(raw)
        expected = f"{cls.__name__}({raw.hex()[:8]}…)"
        assert repr(value) == expected
        assert str(value) == expected
        assert f"{value}" == expected and "%s" % (value,) == expected
        assert f"{value!r:>24}" == expected.rjust(24)

    def test_value_and_bytes_return_plain_bytes(self, cls, raw):
        value = cls(raw)
        assert type(value.value) is bytes and value.value == raw
        assert type(bytes(value)) is bytes and bytes(value) == raw
        assert value.hex == raw.hex()

    def test_zero_is_one_shared_all_zero_instance(self, cls, raw):
        assert cls.zero() is cls.zero()
        assert type(cls.zero()) is cls and cls.zero() == bytes(len(raw))


def test_a_hash_never_equals_an_address():
    for byte in (0, 1, 255):
        h, a = Hash(bytes([byte]) * 32), Address(bytes([byte]) * 20)
        assert h != a and a != h and hash(h) != hash(a)
        assert len({h, a}) == 2
    assert Hash.zero() != Address.zero()


def test_trace_dump_renders_ids_as_before():
    """The JSONL dump stringifies detail values it cannot encode;
    ``bytes.__str__`` must not leak into it."""
    import io
    import json

    from repro.trace import Tracer

    tracer = Tracer()
    tracer.record_intake_park(1.0, "n0", Hash(RAW_HASH), 0)
    out = io.StringIO()
    tracer.dump_jsonl(out)
    assert json.loads(out.getvalue())["missing"] == "Hash(00010203…)"
