"""Differential oracle: our AES-CTR, AES-CBC and AES-CMAC against the
installed ``cryptography`` package, for every NIST key size.

Skipped when ``cryptography`` is absent; nothing is fetched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cmac import aes_cmac
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_transform

pytest.importorskip("cryptography")
from cryptography.hazmat.primitives import cmac, padding  # noqa: E402
from cryptography.hazmat.primitives.ciphers import (  # noqa: E402
    Cipher,
    algorithms,
    modes,
)

KEYS = st.sampled_from([16, 24, 32]).flatmap(
    lambda size: st.binary(min_size=size, max_size=size)
)
BLOCKS = st.binary(min_size=16, max_size=16)
DATA = st.binary(max_size=300)

ORACLE = settings(max_examples=60, deadline=None)


def _run(cipher: Cipher, data: bytes, *, decrypt: bool = False) -> bytes:
    ctx = cipher.decryptor() if decrypt else cipher.encryptor()
    return ctx.update(data) + ctx.finalize()


class TestCtr:
    @ORACLE
    @given(key=KEYS, iv=BLOCKS, data=DATA, initial_block=st.integers(0, 2**20))
    def test_16_byte_iv_is_a_128_bit_counter(self, key, iv, data, initial_block):
        counter = (int.from_bytes(iv, "big") + initial_block) % 2**128
        nonce = counter.to_bytes(16, "big")
        expected = _run(Cipher(algorithms.AES(key), modes.CTR(nonce)), data)
        assert ctr_transform(key, iv, data, initial_block=initial_block) == expected

    @ORACLE
    @given(key=KEYS, iv=st.binary(min_size=8, max_size=8), data=DATA)
    def test_8_byte_iv_fills_the_high_half(self, key, iv, data):
        nonce = iv + bytes(8)
        expected = _run(Cipher(algorithms.AES(key), modes.CTR(nonce)), data)
        assert ctr_transform(key, iv, data) == expected

    def test_counter_wraps_at_2_128(self):
        key, iv = bytes(range(16)), b"\xff" * 16
        data = bytes(48)
        ours = ctr_transform(key, iv, data)
        # Block 0 uses the all-ones counter, blocks 1 and 2 wrap to 0, 1.
        first = _run(Cipher(algorithms.AES(key), modes.CTR(iv)), data[:16])
        rest = _run(Cipher(algorithms.AES(key), modes.CTR(bytes(16))), data[16:])
        assert ours == first + rest


class TestCbc:
    @ORACLE
    @given(key=KEYS, iv=BLOCKS, data=DATA)
    def test_pkcs7_padded_both_ways(self, key, iv, data):
        padder = padding.PKCS7(128).padder()
        padded = padder.update(data) + padder.finalize()
        cipher = Cipher(algorithms.AES(key), modes.CBC(iv))
        expected = _run(cipher, padded)
        assert cbc_encrypt(key, iv, data) == expected
        assert cbc_decrypt(key, iv, expected) == data

    @ORACLE
    @given(key=KEYS, iv=BLOCKS, blocks=st.integers(0, 12), seed=BLOCKS)
    def test_unpadded_block_aligned(self, key, iv, blocks, seed):
        data = (seed * blocks)[: 16 * blocks]
        cipher = Cipher(algorithms.AES(key), modes.CBC(iv))
        expected = _run(cipher, data)
        assert cbc_encrypt(key, iv, data, pad=False) == expected
        assert cbc_decrypt(key, iv, expected, pad=False) == data


class TestCmac:
    @ORACLE
    @given(key=KEYS, data=DATA)
    def test_tags_match(self, key, data):
        mac = cmac.CMAC(algorithms.AES(key))
        mac.update(data)
        assert aes_cmac(key, data) == mac.finalize()

    @pytest.mark.parametrize("length", [0, 15, 16, 17, 32, 33])
    def test_block_boundaries(self, length):
        # The two subkeys split exactly on a full versus partial last block.
        for size in (16, 24, 32):
            key = bytes(range(size))
            data = bytes(range(length))
            mac = cmac.CMAC(algorithms.AES(key))
            mac.update(data)
            assert aes_cmac(key, data) == mac.finalize()
