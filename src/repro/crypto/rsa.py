"""From-scratch RSA signatures for dRBAC credentials.

dRBAC only needs *unforgeable, verifiable issuer signatures* over credential
bytes; this module implements hash-then-sign RSA with a deterministic
full-domain-style padding (a simplified PKCS#1 v1.5 layout).  It is
simulation-grade crypto as documented in DESIGN.md — not hardened against
side channels — but the algebra is real: signatures cannot be forged or
transplanted without the private key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import CryptoError, SignatureError
from .numtheory import bytes_to_int, generate_distinct_primes, int_to_bytes, modinv

# SHA-256 DigestInfo prefix from PKCS#1 v1.5 (DER header for the hash OID).
_SHA256_PREFIX = bytes.fromhex("3031300d060960864801650304020105000420")

DEFAULT_KEY_BITS = 1024  # simulation-grade; keygen stays fast in tests
_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True, slots=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``.

    Hashable and comparable so it can serve as an entity's public identity
    in dRBAC maps and repositories.
    """

    n: int
    e: int

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def fingerprint(self) -> str:
        """Short stable hex identifier for display and dict keys."""
        material = int_to_bytes(self.n) + b"|" + int_to_bytes(self.e)
        return hashlib.sha256(material).hexdigest()[:16]

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Return True iff ``signature`` is a valid signature on ``message``."""
        if len(signature) != self.byte_length:
            return False
        s = bytes_to_int(signature)
        if s >= self.n:
            return False
        em = pow(s, self.e, self.n).to_bytes(self.byte_length, "big")
        return em == _encode_digest(message, self.byte_length)

    def require_valid(self, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureError` on failure."""
        if not self.verify(message, signature):
            raise SignatureError(
                f"signature verification failed for key {self.fingerprint()}"
            )


@dataclass(frozen=True, slots=True)
class RsaPrivateKey:
    """RSA private key; carries its public half for convenience.

    ``p``, ``q``, ``dp``, ``dq`` and ``qinv`` are the CRT parameters that
    :meth:`sign` uses; ``d`` is kept as the textbook exponent they derive
    from.
    """

    n: int
    e: int
    d: int
    p: int = field(repr=False)
    q: int = field(repr=False)
    dp: int = field(repr=False)  # d mod (p - 1)
    dq: int = field(repr=False)  # d mod (q - 1)
    qinv: int = field(repr=False)  # q^-1 mod p

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(n=self.n, e=self.e)

    @property
    def byte_length(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Produce a deterministic hash-then-sign RSA signature."""
        em = _encode_digest(message, self.byte_length)
        m = bytes_to_int(em)
        if m >= self.n:  # pragma: no cover - padding guarantees m < n
            raise CryptoError("encoded message does not fit the modulus")
        # CRT with Garner recombination: the same s = m^d mod n, about
        # three times cheaper than one full-width exponentiation.
        s_p = pow(m, self.dp, self.p)
        s_q = pow(m, self.dq, self.q)
        s = s_q + (self.qinv * (s_p - s_q) % self.p) * self.q
        return s.to_bytes(self.byte_length, "big")


def _encode_digest(message: bytes, em_len: int) -> bytes:
    """PKCS#1 v1.5-style encoding: 00 01 FF..FF 00 || DigestInfo || hash."""
    digest = hashlib.sha256(message).digest()
    t = _SHA256_PREFIX + digest
    ps_len = em_len - len(t) - 3
    if ps_len < 8:
        raise CryptoError(f"modulus too small for SHA-256 signing ({em_len} bytes)")
    return b"\x00\x01" + b"\xff" * ps_len + b"\x00" + t


def generate_keypair(bits: int = DEFAULT_KEY_BITS) -> RsaPrivateKey:
    """Generate a fresh RSA keypair with an n of roughly ``bits`` bits."""
    if bits < 512:
        raise ValueError("RSA modulus must be at least 512 bits")
    half = bits // 2
    while True:
        p, q = generate_distinct_primes(half)
        n = p * q
        phi = (p - 1) * (q - 1)
        try:
            d = modinv(_PUBLIC_EXPONENT, phi)
        except ValueError:
            continue  # gcd(e, phi) != 1 — regenerate
        return RsaPrivateKey(
            n=n, e=_PUBLIC_EXPONENT, d=d, p=p, q=q,
            dp=d % (p - 1), dq=d % (q - 1), qinv=modinv(q, p),
        )
