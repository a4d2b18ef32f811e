"""Wire format: bit packing, framing, size arithmetic, bandwidth ledger."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfl.errors import ProtocolError
from mpfl.model import ModelParams, PruneMask
from mpfl.wire import (
    CAT_DATA,
    CAT_MASK,
    CAT_WEIGHTS,
    DOWN,
    MAGIC,
    UP,
    BandwidthLedger,
    Message,
    MsgType,
    WireCodec,
    dense_bits,
    header_overhead_bytes,
    mask_bits,
    message_category,
    pack_mask,
    pack_params,
    packed_params_size,
    packed_view,
    savings_ratio,
    scatter_params,
    unpack_mask,
    vgg16_dense_bits,
    vgg16_mask_bits,
)

from conftest import make_arch, make_model, packed_mask_bits, random_mask, same_params


def as_wire_precision(model):
    """Round parameters to float32, the wire type, so encode/decode is lossless."""
    out = model.copy()
    for arr in out.weights + out.biases:
        arr[...] = arr.astype(np.float32).astype(np.float64)
    return out


class TestMaskPacking:
    def test_bit_order_vector(self):
        """Groups 0,2,4,6 kept in one byte is 0b01010101 = 0x55, LSB first."""
        arch = make_arch(1, 8)
        mask = PruneMask(arch, [np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=bool)])
        assert pack_mask(mask) == b"\x55"

    def test_padding_layout(self):
        arch = make_arch(1, 11, 3)
        buf = pack_mask(PruneMask.ones(arch))
        assert len(buf) == 3
        assert buf == bytes([0xFF, 0x07, 0x07])

    def test_roundtrip(self, rng):
        arch = make_arch(2, 13, 9, 4)
        mask = random_mask(arch, rng)
        assert unpack_mask(pack_mask(mask), arch) == mask

    def test_wrong_length_rejected(self):
        arch = make_arch(1, 8)
        with pytest.raises(ProtocolError):
            unpack_mask(b"\x00\x00", arch)

    def test_nonzero_padding_rejected(self):
        """The offset names the byte that holds the bad padding bit."""
        arch = make_arch(1, 3)
        with pytest.raises(ProtocolError, match="padding"):
            unpack_mask(bytes([0b1111]), arch)
        with pytest.raises(ProtocolError, match="padding") as err:
            unpack_mask(bytes([0xFF, 0b11111]), make_arch(1, 12))
        assert err.value.offset == 1

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        dims = data.draw(st.lists(st.integers(1, 20), min_size=2, max_size=4))
        arch = make_arch(*dims)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        mask = random_mask(arch, rng, keep_prob=data.draw(st.floats(0.05, 0.95)))
        assert unpack_mask(pack_mask(mask), arch) == mask


class TestParamsPacking:
    def test_roundtrip_under_mask(self, rng):
        arch = make_arch(4, 9, 3)
        mask = random_mask(arch, rng)
        from mpfl.pruning import apply_mask

        model = as_wire_precision(apply_mask(make_model(arch, seed=5), mask))
        buf = bytearray(packed_params_size(mask))
        pack_params(model, mask, buf)
        back = make_model(arch, seed=6)
        scatter_params(packed_view(buf, mask), mask, back)
        assert same_params(back, model)

    def test_decode_overwrites_garbage(self, rng):
        """Decoding into a model whose pruned rows hold garbage equals a fresh decode."""
        arch = make_arch(4, 9, 3)
        mask = random_mask(arch, rng)
        buf = bytearray(packed_params_size(mask))
        pack_params(make_model(arch, seed=5), mask, buf)
        fresh = ModelParams(arch, [np.zeros(s) for s in arch.shapes],
                            [np.zeros(n) for n in arch.groups])
        scatter_params(packed_view(buf, mask), mask, fresh)
        reused = make_model(arch, seed=7)
        for w, b in zip(reused.weights, reused.biases):
            w += 1e30
            b[...] = np.nan
        scatter_params(packed_view(buf, mask), mask, reused)
        assert [a.tobytes() for a in reused.weights + reused.biases] == [
            a.tobytes() for a in fresh.weights + fresh.biases
        ]

    def test_only_live_groups_travel(self):
        arch = make_arch(4, 10)
        mask = PruneMask(arch, [np.r_[np.ones(3, bool), np.zeros(7, bool)]])
        # 3 live groups x (4 weights + 1 bias) x 4 bytes
        assert packed_params_size(mask) == 3 * 5 * 4

    def test_wrong_length_rejected(self, rng):
        arch = make_arch(2, 4)
        mask = PruneMask.ones(arch)
        with pytest.raises(ProtocolError):
            scatter_params(packed_view(b"\x00" * 7, mask), mask, make_model(arch))

    def test_pruned_groups_decode_to_zero(self, rng):
        arch = make_arch(3, 6)
        mask = random_mask(arch, rng, keep_prob=0.5)
        model = as_wire_precision(make_model(arch, seed=6))
        from mpfl.pruning import apply_mask

        buf = bytearray(packed_params_size(mask))
        pack_params(apply_mask(model, mask), mask, buf)
        back = make_model(arch, seed=7)
        scatter_params(packed_view(buf, mask), mask, back)
        dead = ~mask.layers[0]
        np.testing.assert_array_equal(back.weights[0][dead], 0.0)


    @pytest.mark.parametrize("live", ["1209_of_2048", "none_in_a_layer", "all"])
    def test_packed_bytes_match_hstack_reference(self, live):
        """The encoded bytes equal each layer's live rows and biases stacked
        by ``np.hstack`` and cast to float32, with some groups live, a layer
        with no live group, and every group live."""
        arch = make_arch(64, 2048, 10)
        model = make_model(arch, seed=3)
        rng = np.random.default_rng(8)
        mask = PruneMask.ones(arch)
        if live == "1209_of_2048":
            mask.layers[0][rng.permutation(2048)[1209:]] = False
        elif live == "none_in_a_layer":
            mask.layers[0][:] = False
            mask.layers[1][rng.permutation(10)[:4]] = False
        want = b"".join(
            np.hstack([w[bits], b[bits][:, None]]).astype("<f4").tobytes()
            for w, b, bits in zip(model.weights, model.biases, mask.layers)
        )
        buf = bytearray(packed_params_size(mask))
        pack_params(model, mask, buf)
        assert buf == want


class TestCodecFraming:
    def _ref(self):
        """The all-ones reference mask that lays out every frame here."""
        return PruneMask.ones(make_arch(3, 6, 2))

    def test_frame_layout(self):
        ref = self._ref()
        frame = WireCodec.encode(Message(MsgType.GLOBAL_MASK, round_idx=7, mask=ref), ref)
        assert frame[:4] == MAGIC
        assert frame[4] == 1  # version
        assert frame[5] == int(MsgType.GLOBAL_MASK)
        assert int.from_bytes(frame[6:10], "little") == 7
        assert int.from_bytes(frame[10:14], "little") == len(frame) - 14

    def test_upload_carries_node_id(self):
        ref = self._ref()
        frame = WireCodec.encode(Message(MsgType.MASK_UPLOAD, 3, node_id=42, mask=ref), ref)
        assert int.from_bytes(frame[14:18], "little") == 42
        got = WireCodec.decode(frame, make_model(ref.arch), ref)
        assert got.node_id == 42
        assert got.mask == ref

    def test_mask_frame_unpacks_against_the_reference_layout(self, rng):
        """A mask frame carries no layout: the reference mask's architecture gives
        it, so a reference of another layout rejects the payload at its end."""
        ref = self._ref()  # groups [6, 2]: a 2-byte mask payload
        mask = random_mask(ref.arch, rng)
        frame = WireCodec.encode(Message(MsgType.GLOBAL_MASK, 4, mask=mask), ref)
        other = PruneMask.ones(make_arch(3, 20, 2))  # groups [20, 2]: 4 bytes
        with pytest.raises(ProtocolError, match="layout needs 4") as err:
            WireCodec.decode(frame, make_model(other.arch), other)
        assert err.value.offset == 2
        got = WireCodec.decode(frame, make_model(ref.arch), ref)
        assert (got.mtype, got.round_idx, got.mask) == (MsgType.GLOBAL_MASK, 4, mask)

    def test_header_overhead(self):
        assert header_overhead_bytes(MsgType.GLOBAL_MASK) == 14
        assert header_overhead_bytes(MsgType.MASK_UPLOAD) == 18

    def test_weight_message_roundtrip(self):
        ref = self._ref()
        model = as_wire_precision(make_model(ref.arch, seed=9))
        frame = WireCodec.encode(Message(MsgType.INIT_WEIGHTS, 0, params=model), ref)
        got = WireCodec.decode(frame, make_model(ref.arch, seed=10), ref)
        assert same_params(got.params, model)

    def test_bad_magic(self):
        ref = self._ref()
        frame = WireCodec.encode(Message(MsgType.GLOBAL_MASK, 0, mask=ref), ref)
        with pytest.raises(ProtocolError, match="magic"):
            WireCodec.decode(b"XXXX" + frame[4:], make_model(ref.arch), ref)

    def test_bad_version(self):
        ref = self._ref()
        frame = bytearray(WireCodec.encode(Message(MsgType.GLOBAL_MASK, 0, mask=ref), ref))
        frame[4] = 9
        with pytest.raises(ProtocolError, match="version"):
            WireCodec.decode(bytes(frame), make_model(ref.arch), ref)

    def test_unknown_type(self):
        ref = self._ref()
        frame = bytearray(WireCodec.encode(Message(MsgType.GLOBAL_MASK, 0, mask=ref), ref))
        frame[5] = 0
        with pytest.raises(ProtocolError, match="type"):
            WireCodec.decode(bytes(frame), make_model(ref.arch), ref)

    def test_truncation(self):
        ref = self._ref()
        frame = WireCodec.encode(Message(MsgType.GLOBAL_MASK, 0, mask=ref), ref)
        with pytest.raises(ProtocolError):
            WireCodec.decode(frame[:-1], make_model(ref.arch), ref)

    def test_error_reports_offset(self):
        ref = self._ref()
        try:
            WireCodec.decode(b"XXXXxxxxxxxxxxxx", make_model(ref.arch), ref)
        except ProtocolError as e:
            assert "offset 0" in str(e)
        else:
            pytest.fail("expected ProtocolError")

    def test_length_field_mismatch(self):
        ref = self._ref()
        frame = bytearray(WireCodec.encode(Message(MsgType.GLOBAL_MASK, 0, mask=ref), ref))
        frame[10] += 1
        with pytest.raises(ProtocolError):
            WireCodec.decode(bytes(frame), make_model(ref.arch), ref)


class TestBandwidthArithmetic:
    def test_dense_bits_example(self):
        # 10 groups of 5 scalars at 32 bits, plus 4 groups of 11 at 32 bits
        assert dense_bits([(10, 5), (4, 11)], 32) == (50 + 44) * 32

    def test_mask_bits_is_one_per_group(self):
        assert mask_bits([(10, 5), (4, 11)]) == 14

    def test_savings_ratio(self):
        assert savings_ratio(1000, 10) == pytest.approx(0.99)

    def test_vgg16_frozen_totals(self):
        assert vgg16_dense_bits() == 1_182_720
        assert vgg16_mask_bits() == 16_512
        assert savings_ratio(vgg16_dense_bits(), vgg16_mask_bits()) == pytest.approx(
            0.986, abs=5e-4
        )


class TestLedger:
    def test_record_and_totals(self):
        led = BandwidthLedger()
        led.record(0, 1, UP, CAT_MASK, 100)
        led.record(1, 1, UP, CAT_MASK, 100)
        led.record(0, 1, DOWN, CAT_WEIGHTS, 500)
        assert led.total_bits() == 700
        assert led.total_bits(direction=UP) == 200
        assert led.total_bits(category=CAT_MASK) == 200
        assert led.total_bits(direction=DOWN, category=CAT_WEIGHTS) == 500
        assert led.per_node_bits() == {0: 600, 1: 100}

    def test_headers_excluded_by_default(self, loopback):
        """A send books its frame minus the 14-byte header, 18 with a node id."""
        arch = make_arch(3, 6, 2)
        led = BandwidthLedger()
        server, node = loopback(5, led)
        mask = PruneMask.ones(arch)
        down = WireCodec.encode(Message(MsgType.GLOBAL_MASK, 1, mask=mask), mask)
        up = WireCodec.encode(Message(MsgType.MASK_UPLOAD, 1, node_id=5, mask=mask), mask)
        server.send(down)
        node.send(up)
        assert [e.bits for e in led.entries] == [(len(down) - 14) * 8, (len(up) - 18) * 8]

    def test_data_upload_category(self):
        led = BandwidthLedger()
        led.record(3, 0, UP, CAT_DATA, 10_000)
        assert led.summary()["data"] == 10_000
        assert led.total_bits(direction=UP) == 10_000

    def test_per_node(self):
        led = BandwidthLedger()
        led.record(0, 1, UP, CAT_MASK, 10)
        led.record(1, 1, UP, CAT_MASK, 20)
        led.record(1, 2, DOWN, CAT_WEIGHTS, 5)
        assert led.per_node_bits() == {0: 10, 1: 25}

    def test_rejects_bad_direction(self):
        from mpfl.errors import ConfigError

        led = BandwidthLedger()
        with pytest.raises(ConfigError):
            led.record(0, 1, "sideways", CAT_MASK, 1)

    def test_message_category(self):
        assert message_category(MsgType.MASK_UPLOAD) == CAT_MASK
        assert message_category(MsgType.GLOBAL_MASK) == CAT_MASK
        assert message_category(MsgType.INIT_WEIGHTS) == CAT_WEIGHTS

    def test_mask_accounting_oracle(self, rng):
        """Ten nodes voting for ten rounds book exactly n*r*size bits up."""
        arch = make_arch(8, 64, 10)
        size_bits = packed_mask_bits(arch)
        led = BandwidthLedger()
        for rnd in range(1, 11):
            for node in range(10):
                led.record(node, rnd, UP, CAT_MASK, size_bits)
            for node in range(10):
                led.record(node, rnd, DOWN, CAT_MASK, size_bits)
        assert led.total_bits(direction=UP) == 10 * 10 * size_bits
        assert led.total_bits() == 2 * 10 * 10 * size_bits
        # wire bytes pad each layer up to a byte boundary, never below the
        # one-bit-per-group arithmetic
        info_bits = mask_bits(zip(arch.groups, arch.group_sizes))
        assert info_bits <= size_bits < info_bits + 8 * len(arch.groups)
