"""Security substrate: RSA identities, certificates and message signing.

NVFlare provisioning issues every participant a certificate signed by the
project root CA; the server authenticates joining clients against it and the
paper's Fig. 3 shows the resulting "Token & SSH Protocols" handshake.  No
crypto library is available offline, so this module implements the minimum
from first principles:

- probabilistic prime generation (Miller-Rabin),
- textbook RSA sign/verify over SHA-256 digests,
- a tiny certificate format (JSON payload + CA signature),
- HMAC-SHA256 session signing for post-handshake traffic.

This is an *educational* implementation — deterministic padding, no
side-channel hardening — which is exactly the right trade-off for a
simulator whose goal is to exercise the protocol shape.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RSAKeyPair",
    "generate_keypair",
    "sign",
    "verify",
    "Certificate",
    "CertificateAuthority",
    "hmac_absorb",
    "hmac_sign",
    "hmac_sign_parts",
    "hmac_verify",
    "hmac_verify_parts",
]

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _is_probable_prime(n: int, rng: np.random.Generator, rounds: int = 40) -> bool:
    """Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + int(rng.integers(0, 1 << 62)) % (n - 4)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: np.random.Generator) -> int:
    """A random prime with exactly ``bits`` bits."""
    while True:
        words = [int(rng.integers(0, 1 << 32)) for _ in range((bits + 31) // 32)]
        candidate = 0
        for word in words:
            candidate = (candidate << 32) | word
        candidate |= (1 << (bits - 1)) | 1  # top bit + odd
        candidate &= (1 << bits) - 1
        if _is_probable_prime(candidate, rng):
            return candidate


def _modinv(a: int, m: int) -> int:
    g, x = _extended_gcd(a, m)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_x, x = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    return old_r, old_x


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair; ``(n, e)`` is public, ``d`` private."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> tuple[int, int]:
        return (self.n, self.e)


def generate_keypair(bits: int = 1024, seed: int | None = None) -> RSAKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus."""
    if bits < 128:
        raise ValueError("modulus below 128 bits cannot hold a SHA-256 digest")
    rng = np.random.default_rng(seed)
    e = 65537
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n = p * q
        if n.bit_length() < bits - 1:
            continue
        return RSAKeyPair(n=n, e=e, d=_modinv(e, phi))


def _digest_int(message: bytes, modulus: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % modulus


def sign(message: bytes, key: RSAKeyPair) -> int:
    """RSA signature over the SHA-256 digest of ``message``."""
    return pow(_digest_int(message, key.n), key.d, key.n)


def verify(message: bytes, signature: int, public: tuple[int, int]) -> bool:
    """Check an RSA signature against a public key."""
    n, e = public
    return pow(signature, e, n) == _digest_int(message, n)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Certificate:
    """A CA-signed binding of (name, org, role) to a public key."""

    subject: str
    org: str
    role: str
    public_key: tuple[int, int]
    signature: int  # by the CA over payload_bytes()

    def payload_bytes(self) -> bytes:
        return json.dumps({
            "subject": self.subject, "org": self.org, "role": self.role,
            "n": str(self.public_key[0]), "e": self.public_key[1],
        }, sort_keys=True).encode("utf-8")


class CertificateAuthority:
    """The project root CA: issues and verifies participant certificates."""

    def __init__(self, name: str = "root-ca", bits: int = 1024,
                 seed: int | None = None) -> None:
        self.name = name
        self._key = generate_keypair(bits=bits, seed=seed)

    @property
    def public_key(self) -> tuple[int, int]:
        return self._key.public

    def issue(self, subject: str, org: str, role: str,
              public_key: tuple[int, int]) -> Certificate:
        unsigned = Certificate(subject=subject, org=org, role=role,
                               public_key=public_key, signature=0)
        signature = sign(unsigned.payload_bytes(), self._key)
        return Certificate(subject=subject, org=org, role=role,
                           public_key=public_key, signature=signature)

    def verify_certificate(self, cert: Certificate) -> bool:
        return verify(cert.payload_bytes(), cert.signature, self.public_key)


# ---------------------------------------------------------------------------
# session-layer signing
# ---------------------------------------------------------------------------
def hmac_sign(payload: bytes, session_key: bytes) -> str:
    """HMAC-SHA256 tag used on every post-handshake message."""
    return hmac.new(session_key, payload, hashlib.sha256).hexdigest()


def hmac_absorb(parts, session_key: bytes) -> "hmac.HMAC":
    """HMAC-SHA256 state that has absorbed buffer ``parts``, not yet finished.

    Each part — bytes or memoryview — is fed into the digest in place, never
    joined.  A sender signing one body under several headers keeps the state
    that absorbed the body and finishes a ``.copy()`` of it per header, so
    the body is hashed once however many envelopes carry it.
    """
    mac = hmac.new(session_key, digestmod=hashlib.sha256)
    for part in parts:
        mac.update(part)
    return mac


def hmac_sign_parts(parts, session_key: bytes) -> str:
    """HMAC-SHA256 over concatenated buffer ``parts`` without joining them.

    Equivalent to ``hmac_sign(b"".join(parts), key)``, so a message body
    living in shared memory or a receive buffer is hashed in place instead
    of being copied into a throwaway concatenation.
    """
    return hmac_absorb(parts, session_key).hexdigest()


def hmac_verify(payload: bytes, tag: str, session_key: bytes) -> bool:
    return hmac.compare_digest(hmac_sign(payload, session_key), tag)


def hmac_verify_parts(parts, tag: str, session_key: bytes) -> bool:
    return hmac.compare_digest(hmac_sign_parts(parts, session_key), tag)
