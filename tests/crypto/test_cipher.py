"""Authenticated cipher tests: confidentiality + integrity + AD binding."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import cipher as cipher_module
from repro.crypto.cipher import AuthenticatedCipher
from repro.errors import CipherError

KEY = b"k" * 32
NONCE = bytes(range(16))

# One frame of the construction, pinned: KEY, NONCE, associated data
# b"seq-7" and the 40-byte plaintext below.  Any change to the keystream,
# the key derivation, the MAC input or the frame layout breaks it.
KAT_PLAINTEXT = b"Bob reads mail through a view, 40 bytes."
KAT_FRAME = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f"
    "5d92d400c23bd269e4f9eb77995f3ef7f4767f546868523a6386464905dbea44"
    "9cbf52008509afa3"
    "3d202281100859fa9b4bb5f60ad8227e448974505ad9bec6104459c0dc2f1377"
)


@pytest.fixture()
def cipher():
    return AuthenticatedCipher(KEY)


class TestRoundtrip:
    def test_basic(self, cipher):
        frame = cipher.encrypt(b"attack at dawn")
        assert cipher.decrypt(frame) == b"attack at dawn"

    def test_empty_plaintext(self, cipher):
        assert cipher.decrypt(cipher.encrypt(b"")) == b""

    def test_large_plaintext(self, cipher):
        data = bytes(range(256)) * 512
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_with_associated_data(self, cipher):
        frame = cipher.encrypt(b"payload", b"seq-7")
        assert cipher.decrypt(frame, b"seq-7") == b"payload"

    @given(st.binary(max_size=2048), st.binary(max_size=64))
    def test_property_roundtrip(self, plaintext, ad):
        c = AuthenticatedCipher(KEY)
        assert c.decrypt(c.encrypt(plaintext, ad), ad) == plaintext

    def test_nonce_randomization(self, cipher):
        assert cipher.encrypt(b"x") != cipher.encrypt(b"x")


class TestRejection:
    def test_tampered_ciphertext(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[20] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_tampered_nonce(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[0] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_tampered_tag(self, cipher):
        frame = bytearray(cipher.encrypt(b"secret data"))
        frame[-1] ^= 0x01
        with pytest.raises(CipherError):
            cipher.decrypt(bytes(frame))

    def test_wrong_associated_data(self, cipher):
        frame = cipher.encrypt(b"payload", b"seq-7")
        with pytest.raises(CipherError):
            cipher.decrypt(frame, b"seq-8")

    def test_truncated_frame(self, cipher):
        with pytest.raises(CipherError):
            cipher.decrypt(b"short")

    def test_wrong_key(self):
        frame = AuthenticatedCipher(KEY).encrypt(b"x")
        with pytest.raises(CipherError):
            AuthenticatedCipher(b"j" * 32).decrypt(frame)

    def test_short_session_key_rejected(self):
        with pytest.raises(CipherError):
            AuthenticatedCipher(b"short")


class TestConfidentiality:
    def test_plaintext_not_visible(self, cipher):
        frame = cipher.encrypt(b"TOPSECRET-MARKER" * 4)
        assert b"TOPSECRET-MARKER" not in frame

    def test_key_separation(self):
        # Same session key, different derived enc/mac keys per domain.
        c1 = AuthenticatedCipher(KEY)
        c2 = AuthenticatedCipher(KEY)
        assert c1.decrypt(c2.encrypt(b"cross")) == b"cross"


def _reference_encrypt(session_key: bytes, nonce: bytes, plaintext: bytes, ad: bytes = b"") -> bytes:
    """The construction written out the slow, obvious way.

    Keystream block by block, then a per-byte XOR: ``cipher.py`` must stay
    byte-identical to it.
    """
    enc_key = hashlib.sha256(b"repro-enc|" + session_key).digest()
    mac_key = hashlib.sha256(b"repro-mac|" + session_key).digest()
    stream = b""
    counter = 0
    while len(stream) < len(plaintext):
        stream += hashlib.sha256(enc_key + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
    tag = hmac.new(mac_key, nonce + ad + ciphertext, hashlib.sha256).digest()
    return nonce + ciphertext + tag


@pytest.fixture()
def pinned_nonce(monkeypatch):
    monkeypatch.setattr(cipher_module.secrets, "token_bytes", lambda n: NONCE[:n])


class TestAgainstReference:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 200, 7200])
    def test_encrypt_matches_reference(self, pinned_nonce, length):
        plaintext = bytes((i * 7 + 3) % 256 for i in range(length))
        frame = AuthenticatedCipher(KEY).encrypt(plaintext, b"seq-1")
        assert frame == _reference_encrypt(KEY, NONCE, plaintext, b"seq-1")

    @given(st.binary(max_size=4096), st.binary(max_size=32))
    def test_encrypt_matches_reference_property(self, plaintext, ad):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cipher_module.secrets, "token_bytes", lambda n: NONCE[:n])
            frame = AuthenticatedCipher(KEY).encrypt(plaintext, ad)
        assert frame == _reference_encrypt(KEY, NONCE, plaintext, ad)

    @given(st.binary(max_size=4096), st.binary(min_size=16, max_size=16))
    def test_reference_frames_decrypt(self, plaintext, nonce):
        frame = _reference_encrypt(KEY, nonce, plaintext, b"seq-2")
        assert AuthenticatedCipher(KEY).decrypt(frame, b"seq-2") == plaintext

    def test_known_answer(self, pinned_nonce):
        assert AuthenticatedCipher(KEY).encrypt(KAT_PLAINTEXT, b"seq-7") == KAT_FRAME
        assert AuthenticatedCipher(KEY).decrypt(KAT_FRAME, b"seq-7") == KAT_PLAINTEXT
        assert _reference_encrypt(KEY, NONCE, KAT_PLAINTEXT, b"seq-7") == KAT_FRAME
