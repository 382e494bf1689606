"""Bridging external public key infrastructures (paper section 2.4).

"On-the-fly symbolic link creation in /sfs can be used to exploit
existing public key infrastructures.  For example, one might want to use
SSL certificates to authenticate SFS servers. ... One can in fact build
an agent that generates self-certifying pathnames from SSL certificates.
The agent might intercept every request for a file name of the form
/sfs/host.ssl.  It would contact host's secure web server, download and
check the server's certificate, and construct from the certificate a
self-certifying pathname to which to redirect the user."

This module implements that bridge against a simulated certificate
directory: an :class:`SslDirectory` stands in for the web-server + CA
machinery (certificates are statements "key K belongs to host H" signed
by a CA key the resolver trusts).  The resolver plugs into an agent via
:meth:`Agent.add_resolver` and rewrites ``host.ssl`` names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pathnames import make_path
from ..crypto.rabin import PrivateKey, PublicKey, RabinError
from ..rpc.xdr import Opaque, String, Struct, XdrError

SSL_SUFFIX = ".ssl"

SslCertBody = Struct(
    "SslCertBody",
    [("hostname", String(255)), ("public_key", Opaque())],
)
SslCertificate = Struct(
    "SslCertificate",
    [("body", Opaque()), ("signature", Opaque())],
)


@dataclass(frozen=True)
class IssuedCert:
    """A marshaled certificate as the directory serves it."""

    blob: bytes


class SslDirectory:
    """The simulated external PKI: a CA that issues host certificates."""

    def __init__(self, ca_key: PrivateKey) -> None:
        self._ca_key = ca_key
        self._certs: dict[str, IssuedCert] = {}

    def issue(self, hostname: str, host_key: PublicKey) -> IssuedCert:
        """CA signs "host_key belongs to hostname"."""
        body = SslCertBody.pack(
            SslCertBody.make(hostname=hostname, public_key=host_key.to_bytes())
        )
        cert = IssuedCert(SslCertificate.pack(
            SslCertificate.make(body=body, signature=self._ca_key.sign(body))
        ))
        self._certs[hostname] = cert
        return cert

    def fetch(self, hostname: str) -> IssuedCert | None:
        """What "contacting the host's secure web server" returns."""
        return self._certs.get(hostname)


class SslBridgeResolver:
    """An agent resolver mapping ``host.ssl`` -> self-certifying paths."""

    def __init__(self, directory: SslDirectory,
                 trusted_ca: PublicKey) -> None:
        self._directory = directory
        self._trusted_ca = trusted_ca
        self.resolutions = 0
        self.rejected = 0

    def __call__(self, name: str) -> str | None:
        if not name.endswith(SSL_SUFFIX):
            return None
        hostname = name[: -len(SSL_SUFFIX)]
        cert = self._directory.fetch(hostname)
        if cert is None:
            return None
        try:
            parsed = SslCertificate.unpack(cert.blob)
            if not self._trusted_ca.verify(parsed.body, parsed.signature):
                self.rejected += 1
                return None
            body = SslCertBody.unpack(parsed.body)
            host_key = PublicKey.from_bytes(body.public_key)
        except (XdrError, RabinError):
            self.rejected += 1
            return None
        if body.hostname != hostname:
            self.rejected += 1
            return None
        self.resolutions += 1
        return str(make_path(hostname, host_key))
