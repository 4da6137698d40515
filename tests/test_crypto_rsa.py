"""RSA keygen, OAEP and PSS: round trips, tamper rejection, determinism,
and a differential oracle against the ``cryptography`` package."""

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.rsa as rsa_module
from repro.crypto.rng import derive_rng
from repro.crypto.rsa import (
    RsaPrivateKey,
    generate_keypair,
    oaep_decrypt,
    oaep_encrypt,
    pss_sign,
    pss_verify,
)


@pytest.fixture(scope="module")
def key() -> RsaPrivateKey:
    return generate_keypair(1024, label="test-suite-1024")


@pytest.fixture(scope="module")
def key2048() -> RsaPrivateKey:
    return generate_keypair(2048, label="test-suite-2048")


@pytest.fixture(scope="module", params=[1024, 2048])
def any_key(request, key, key2048) -> RsaPrivateKey:
    return key if request.param == 1024 else key2048


class _TextbookKey(RsaPrivateKey):
    """The same key, but its private op is the textbook ``c^d mod n``."""

    def raw_decrypt(self, c: int) -> int:
        return pow(c, self.d, self.n)


class TestKeygen:
    def test_modulus_bit_length(self, key, key2048):
        assert key.n.bit_length() == 1024
        assert key2048.n.bit_length() == 2048

    def test_deterministic_by_label(self):
        a = generate_keypair(1024, label="det-check")
        b = generate_keypair(1024, label="det-check")
        assert a.n == b.n

    def test_label_separation(self):
        a = generate_keypair(1024, label="label-a")
        b = generate_keypair(1024, label="label-b")
        assert a.n != b.n

    def test_cache_returns_same_object(self):
        assert generate_keypair(1024, label="cache-check") is generate_keypair(
            1024, label="cache-check"
        )

    @pytest.mark.parametrize("bits", [512, 1024, 1025, 2048])
    def test_modulus_and_primes_are_full_length(self, bits):
        label = "test-suite-2048" if bits == 2048 else f"full-length/{bits}"
        k = generate_keypair(bits, label=label)
        assert k.n.bit_length() == bits
        assert k.p.bit_length() + k.q.bit_length() == bits
        for prime in (k.p, k.q):
            assert prime >> (prime.bit_length() - 2) == 0b11

    def test_explicit_rng_keygen_draws_exactly_two_primes(self, monkeypatch):
        calls = []
        real = rsa_module._generate_prime

        def counting(bits, rng):
            calls.append(bits)
            return real(bits, rng)

        monkeypatch.setattr(rsa_module, "_generate_prime", counting)
        # With only the top bit forced, this stream needed five prime
        # pairs before p*q reached 1024 bits.
        generate_keypair(1024, rng=derive_rng("prime-count/e"))
        assert calls == [512, 512]

    def test_private_public_consistency(self, key):
        message = 0x1234567890ABCDEF
        assert key.raw_decrypt(key.public.raw_encrypt(message)) == message

    def test_explicit_rng_bypasses_cache(self):
        a = generate_keypair(1024, rng=derive_rng("explicit-a"))
        b = generate_keypair(1024, rng=derive_rng("explicit-b"))
        assert a.n != b.n

    def test_public_fingerprint_is_32_bytes(self, key):
        assert len(key.public.fingerprint()) == 32

    def test_export_import_round_trip(self, key):
        blob = key.export_secret()
        restored = RsaPrivateKey.import_secret(blob)
        assert restored == key

    def test_import_rejects_garbage(self):
        with pytest.raises(ValueError, match="not an exported RSA key"):
            RsaPrivateKey.import_secret(b"nonsense")

    def test_import_rejects_every_truncation(self, key):
        blob = key.export_secret()
        for cut in range(4, len(blob)):
            with pytest.raises(ValueError, match="truncated|inconsistent"):
                RsaPrivateKey.import_secret(blob[:cut])

    def test_import_rejects_trailing_bytes(self, key):
        with pytest.raises(ValueError, match="trailing"):
            RsaPrivateKey.import_secret(key.export_secret() + b"\x00")

    @pytest.mark.parametrize(
        "field, delta",
        [
            ("n", 2),  # n != p*q
            ("d", 2),  # e*d != 1 mod (p-1) and mod (q-1)
            ("p", 2),  # n != p*q
        ],
    )
    def test_import_rejects_inconsistent_keys(self, key, field, delta):
        bad = replace(key, **{field: getattr(key, field) + delta})
        with pytest.raises(ValueError, match="inconsistent"):
            RsaPrivateKey.import_secret(bad.export_secret())

    @pytest.mark.parametrize("prime", ["p", "q"])
    def test_import_rejects_d_wrong_modulo_one_prime(self, key, prime):
        # d + (q-1) still inverts e mod q-1 but not mod p-1, and vice versa.
        other = key.q if prime == "p" else key.p
        bad = replace(key, d=key.d + other - 1)
        with pytest.raises(ValueError, match="inconsistent"):
            RsaPrivateKey.import_secret(bad.export_secret())

    def test_cache_keypair_replaces_generation(self, key, monkeypatch):
        monkeypatch.setattr(rsa_module, "_KEY_CACHE", {})
        rsa_module.cache_keypair(key, 1024, label="cache-install-check")
        assert generate_keypair(1024, label="cache-install-check") is key

    def test_raw_ops_range_checks(self, key):
        with pytest.raises(ValueError):
            key.public.raw_encrypt(key.n)
        with pytest.raises(ValueError):
            key.raw_decrypt(key.n + 5)


class TestOaep:
    def test_round_trip(self, key):
        ct = oaep_encrypt(key.public, b"the session key!")
        assert oaep_decrypt(key, ct) == b"the session key!"

    def test_round_trip_empty_message(self, key):
        assert oaep_decrypt(key, oaep_encrypt(key.public, b"")) == b""

    def test_ciphertext_length_is_modulus_length(self, key):
        assert len(oaep_encrypt(key.public, b"x")) == key.byte_length

    def test_message_too_long_rejected(self, key):
        limit = key.byte_length - 2 * 32 - 2
        with pytest.raises(ValueError, match="too long"):
            oaep_encrypt(key.public, bytes(limit + 1))

    def test_max_length_message_fits(self, key):
        limit = key.byte_length - 2 * 32 - 2
        message = bytes(limit)
        assert oaep_decrypt(key, oaep_encrypt(key.public, message)) == message

    def test_tampered_ciphertext_rejected(self, key):
        ct = bytearray(oaep_encrypt(key.public, b"secret"))
        ct[-1] ^= 1
        with pytest.raises(ValueError, match="OAEP"):
            oaep_decrypt(key, bytes(ct))

    def test_wrong_length_ciphertext_rejected(self, key):
        with pytest.raises(ValueError, match="wrong length"):
            oaep_decrypt(key, b"short")

    def test_label_mismatch_rejected(self, key):
        ct = oaep_encrypt(key.public, b"secret", label=b"label-1")
        with pytest.raises(ValueError, match="OAEP"):
            oaep_decrypt(key, ct, label=b"label-2")

    def test_label_match_accepted(self, key):
        ct = oaep_encrypt(key.public, b"secret", label=b"label-1")
        assert oaep_decrypt(key, ct, label=b"label-1") == b"secret"

    def test_wrong_key_rejected(self, key):
        other = generate_keypair(1024, label="oaep-other")
        ct = oaep_encrypt(key.public, b"secret")
        with pytest.raises(ValueError):
            oaep_decrypt(other, ct)

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=32))
    def test_round_trip_property(self, key, message):
        assert oaep_decrypt(key, oaep_encrypt(key.public, message)) == message


class TestPss:
    def test_sign_verify(self, key):
        sig = pss_sign(key, b"license request")
        assert pss_verify(key.public, b"license request", sig)

    def test_verify_rejects_other_message(self, key):
        sig = pss_sign(key, b"license request")
        assert not pss_verify(key.public, b"other request", sig)

    def test_verify_rejects_tampered_signature(self, key):
        sig = bytearray(pss_sign(key, b"msg"))
        sig[0] ^= 1
        assert not pss_verify(key.public, b"msg", bytes(sig))

    def test_verify_rejects_wrong_length(self, key):
        assert not pss_verify(key.public, b"msg", b"short")

    def test_verify_rejects_wrong_key(self, key):
        other = generate_keypair(1024, label="pss-other")
        sig = pss_sign(key, b"msg")
        assert not pss_verify(other.public, b"msg", sig)

    def test_2048_bit_operation(self, key2048):
        sig = pss_sign(key2048, b"big-key message")
        assert pss_verify(key2048.public, b"big-key message", sig)

    def test_empty_message(self, key):
        sig = pss_sign(key, b"")
        assert pss_verify(key.public, b"", sig)

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=64))
    def test_sign_verify_property(self, key, message):
        assert pss_verify(key.public, message, pss_sign(key, message))

    @settings(max_examples=10, deadline=None)
    @given(message=st.binary(max_size=64))
    def test_crt_signature_equals_textbook_signature(self, any_key, message):
        textbook = _TextbookKey(
            n=any_key.n, e=any_key.e, d=any_key.d, p=any_key.p, q=any_key.q
        )
        assert pss_sign(any_key, message) == pss_sign(textbook, message)


class TestCryptographyOracle:
    """Our keys and encodings against the installed ``cryptography``."""

    @pytest.fixture(scope="class")
    def oracle(self):
        pytest.importorskip("cryptography")
        from cryptography.hazmat.primitives import hashes
        from cryptography.hazmat.primitives.asymmetric import padding, rsa

        sha256 = hashes.SHA256()
        mgf = padding.MGF1(sha256)
        return SimpleNamespace(
            rsa=rsa,
            sha256=sha256,
            pss=padding.PSS(mgf=mgf, salt_length=32),
            oaep=padding.OAEP(mgf=mgf, algorithm=sha256, label=None),
        )

    @pytest.fixture(scope="class")
    def loaded(self, oracle, any_key):
        rsa, k = oracle.rsa, any_key
        numbers = rsa.RSAPrivateNumbers(
            p=k.p,
            q=k.q,
            d=k.d,
            dmp1=rsa.rsa_crt_dmp1(k.d, k.p),
            dmq1=rsa.rsa_crt_dmq1(k.d, k.q),
            iqmp=rsa.rsa_crt_iqmp(k.p, k.q),
            public_numbers=rsa.RSAPublicNumbers(k.e, k.n),
        )
        return numbers.private_key()

    def test_key_loads_as_private_numbers(self, loaded, any_key):
        assert loaded.key_size == any_key.n.bit_length()
        numbers = loaded.private_numbers()
        assert (numbers.public_numbers.n, numbers.d) == (any_key.n, any_key.d)

    @settings(max_examples=5, deadline=None)
    @given(message=st.binary(max_size=64))
    def test_our_pss_signature_verifies_there(
        self, oracle, loaded, any_key, message
    ):
        signature = pss_sign(any_key, message)
        loaded.public_key().verify(signature, message, oracle.pss, oracle.sha256)

    def test_their_pss_signature_verifies_here(self, oracle, loaded, any_key):
        signature = loaded.sign(b"license request", oracle.pss, oracle.sha256)
        assert pss_verify(any_key.public, b"license request", signature)

    def test_oaep_round_trips_both_ways(self, oracle, loaded, any_key):
        ours = oaep_encrypt(any_key.public, b"session key, ours")
        assert loaded.decrypt(ours, oracle.oaep) == b"session key, ours"
        theirs = loaded.public_key().encrypt(b"session key, theirs", oracle.oaep)
        assert oaep_decrypt(any_key, theirs) == b"session key, theirs"
