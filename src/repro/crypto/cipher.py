"""Authenticated symmetric encryption for Switchboard payloads.

Encrypt-then-MAC over a SHA-256 keystream in counter mode:

* keystream block ``i`` = SHA-256(enc_key || nonce || counter_i)
* ciphertext = plaintext XOR keystream
* tag = HMAC-SHA256(mac_key, nonce || ciphertext)

The XOR is one big-integer operation over the whole payload, not a per-byte
loop, and the keystream blocks continue one hashed ``enc_key || nonce``
prefix.  Both give exactly the bytes of the definition above, so the
keystream, the frame layout and every frame are unchanged.

Key separation: the 32-byte session key from the DH exchange is split into
independent encryption and MAC keys via domain-separated hashing.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from ..errors import CipherError

_NONCE_LEN = 16
_TAG_LEN = 32
_BLOCK = 32  # SHA-256 output size


def _derive_keys(session_key: bytes) -> tuple[bytes, bytes]:
    if len(session_key) < 16:
        raise CipherError("session key must be at least 16 bytes")
    enc = hashlib.sha256(b"repro-enc|" + session_key).digest()
    mac = hashlib.sha256(b"repro-mac|" + session_key).digest()
    return enc, mac


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    prefix = hashlib.sha256(enc_key + nonce)
    blocks = []
    for counter in range((length + _BLOCK - 1) // _BLOCK):
        block = prefix.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    return b"".join(blocks)[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data XOR stream`` (equal lengths) as one big-integer operation."""
    mixed = int.from_bytes(data, "little") ^ int.from_bytes(stream, "little")
    return mixed.to_bytes(len(data), "little")


@dataclass(slots=True)
class AuthenticatedCipher:
    """Symmetric authenticated encryption bound to one session key."""

    _enc_key: bytes
    _mac_key: bytes

    def __init__(self, session_key: bytes) -> None:
        self._enc_key, self._mac_key = _derive_keys(session_key)

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Return ``nonce || ciphertext || tag``.

        ``associated_data`` is authenticated but not encrypted (used for
        sequence numbers so replayed frames fail the tag check).
        """
        nonce = secrets.token_bytes(_NONCE_LEN)
        stream = _keystream(self._enc_key, nonce, len(plaintext))
        ciphertext = _xor(plaintext, stream)
        tag = hmac.new(
            self._mac_key, nonce + associated_data + ciphertext, hashlib.sha256
        ).digest()
        return nonce + ciphertext + tag

    def decrypt(self, frame: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt a frame produced by :meth:`encrypt`.

        Raises:
            CipherError: on truncation, tampering, or wrong associated data.
        """
        if len(frame) < _NONCE_LEN + _TAG_LEN:
            raise CipherError("frame too short")
        nonce = frame[:_NONCE_LEN]
        tag = frame[-_TAG_LEN:]
        ciphertext = frame[_NONCE_LEN:-_TAG_LEN]
        expected = hmac.new(
            self._mac_key, nonce + associated_data + ciphertext, hashlib.sha256
        ).digest()
        if not hmac.compare_digest(tag, expected):
            raise CipherError("authentication tag mismatch")
        stream = _keystream(self._enc_key, nonce, len(ciphertext))
        return _xor(ciphertext, stream)
