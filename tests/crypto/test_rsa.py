"""RSA signature tests: the unforgeability dRBAC depends on."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.numtheory import bytes_to_int
from repro.crypto.rsa import RsaPublicKey, _encode_digest, generate_keypair
from repro.errors import SignatureError


# Several generated keys, so CRT signing is checked across different p and q.
_KEYS = [generate_keypair(512) for _ in range(4)]


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512)


@pytest.fixture(scope="module")
def other_keypair():
    return generate_keypair(512)


class TestSignVerify:
    def test_roundtrip(self, keypair):
        sig = keypair.sign(b"hello world")
        assert keypair.public_key.verify(b"hello world", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.sign(b"hello world")
        assert not keypair.public_key.verify(b"hello worlD", sig)

    def test_wrong_key_rejected(self, keypair, other_keypair):
        sig = keypair.sign(b"msg")
        assert not other_keypair.public_key.verify(b"msg", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.sign(b"msg"))
        sig[0] ^= 0xFF
        assert not keypair.public_key.verify(b"msg", bytes(sig))

    def test_truncated_signature_rejected(self, keypair):
        sig = keypair.sign(b"msg")
        assert not keypair.public_key.verify(b"msg", sig[:-1])

    def test_oversized_signature_rejected(self, keypair):
        big = (keypair.n + 1).to_bytes(keypair.byte_length, "big", signed=False)
        assert not keypair.public_key.verify(b"msg", big)

    def test_deterministic(self, keypair):
        assert keypair.sign(b"abc") == keypair.sign(b"abc")

    def test_empty_message(self, keypair):
        sig = keypair.sign(b"")
        assert keypair.public_key.verify(b"", sig)

    @given(st.binary(max_size=512))
    def test_any_message_roundtrips(self, message):
        # Module fixture unavailable in @given; use a cached pair.
        kp = _cached_pair()
        assert kp.public_key.verify(message, kp.sign(message))

    def test_require_valid_raises(self, keypair):
        with pytest.raises(SignatureError):
            keypair.public_key.require_valid(b"msg", b"\x00" * keypair.byte_length)

    def test_require_valid_passes(self, keypair):
        keypair.public_key.require_valid(b"msg", keypair.sign(b"msg"))


class TestCrtSigning:
    """``sign`` uses the CRT parameters; the signature must be the textbook one."""

    @staticmethod
    def _textbook(kp, message: bytes) -> bytes:
        em = bytes_to_int(_encode_digest(message, kp.byte_length))
        return pow(em, kp.d, kp.n).to_bytes(kp.byte_length, "big")

    @given(st.integers(min_value=0, max_value=len(_KEYS) - 1), st.binary(max_size=512))
    def test_crt_equals_textbook(self, index, message):
        kp = _KEYS[index]
        sig = kp.sign(message)
        assert sig == self._textbook(kp, message)
        assert kp.public_key.verify(message, sig)

    def test_crt_parameters(self, keypair):
        assert keypair.p * keypair.q == keypair.n
        assert keypair.dp == keypair.d % (keypair.p - 1)
        assert keypair.dq == keypair.d % (keypair.q - 1)
        assert keypair.qinv * keypair.q % keypair.p == 1

    def test_repr_hides_crt_parameters(self, keypair):
        text = repr(keypair)
        assert str(keypair.p) not in text and str(keypair.dp) not in text
        assert "qinv" not in text


class TestKeys:
    def test_public_key_hashable(self, keypair):
        assert {keypair.public_key: 1}[RsaPublicKey(keypair.n, keypair.e)] == 1

    def test_fingerprint_stable_and_short(self, keypair):
        fp = keypair.public_key.fingerprint()
        assert fp == keypair.public_key.fingerprint()
        assert len(fp) == 16

    def test_fingerprints_differ(self, keypair, other_keypair):
        assert keypair.public_key.fingerprint() != other_keypair.public_key.fingerprint()

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            generate_keypair(256)

    def test_modulus_size(self, keypair):
        assert keypair.n.bit_length() >= 510  # two 256-bit primes


_PAIR = None


def _cached_pair():
    global _PAIR
    if _PAIR is None:
        _PAIR = generate_keypair(512)
    return _PAIR
