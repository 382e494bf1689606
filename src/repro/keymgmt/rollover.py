"""Programmatic server key rollover and revocation fan-out.

The paper's key-management story turns on two certificate forms (section
2.6): a *forwarding pointer* ``{"PathRevoke", Location, new-path}`` that
retires a HostID in favor of a successor, and a *revocation certificate*
(NULL redirect) that retires it for good.  Both are signed by the old
key and self-authenticating, so they can travel through anything — the
old server itself, certification authorities, or direct delivery to
client daemons — without the bearer being trusted.

This module packages the two operational moves built from them:

* :func:`rollover_export` — roll one export's key in place: generate a
  fresh key, re-export the same file system and authserver under the
  new HostID, and leave a signed trail (forwarding pointer or
  revocation) behind the old one.  Live sessions keep working on their
  established connections; clients that redial — after a crash, or a
  fresh mount — are redirected and re-verify the *new* HostID, which is
  exactly the ServerSession retarget path.
* :func:`revoke_export` — retire an export with no successor.
* :func:`fan_out_revocations` — push a batch of certificates to client
  daemons, server masters, and a CA in one sweep: the revocation-storm
  primitive the scenario engine drives against populated HostID caches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.revocation import (
    CertificateError,
    make_forwarding_pointer,
    make_revocation_certificate,
    verify_certificate,
)
from ..crypto.rabin import generate_key
from ..fs.memfs import ERR_NOENT, FsError
from ..rpc.xdr import Record

#: Modes for :func:`rollover_export`.
FORWARD = "forward"
REVOKE = "revoke"


@dataclass(frozen=True)
class RolloverResult:
    """What one key rollover produced."""

    old_path: object         # SelfCertifyingPath the export used to have
    new_path: object         # SelfCertifyingPath it has now
    certificate: Record      # the signed trail left behind the old HostID
    mode: str                # FORWARD or REVOKE


def rollover_export(server, name: str = "default", mode: str = FORWARD,
                    key_bits: int = 768, ca=None, ca_name: str | None = None
                    ) -> RolloverResult:
    """Roll *server*'s export *name* onto a fresh key, in place.

    *server* is a :class:`~repro.kernel.world.ServerMachine`.  The same
    file system and authserver are re-exported under a newly generated
    key (same Location, new HostID — and, because the handle map derives
    from the key, a new handle map).  The old HostID then serves a
    forwarding pointer to the new path (``mode="forward"``) or a
    revocation certificate (``mode="revoke"``) to every later dial.

    With *ca*, the authority's symlink for *ca_name* (default: the
    export name) is re-pointed at the new path — the certification-path
    step that lets clients resolving by human name land on the new
    HostID without ever seeing the old one — and a revocation is also
    filed under ``/revocations``.

    Returns a :class:`RolloverResult`; the certificate in it can be
    handed to :func:`fan_out_revocations` for active propagation.
    """
    if mode not in (FORWARD, REVOKE):
        raise ValueError(f"unknown rollover mode {mode!r}")
    old_path, fs, authserver = server.exports[name]
    old_export = server.master.rw_export(old_path.hostid)
    if old_export is None:
        raise ValueError(
            f"export {name!r} is not being served (already rolled over?)"
        )
    old_key = old_export.key
    new_key = generate_key(key_bits, server.world.rng)
    new_path = server.master.add_rw_export(
        new_key, fs, authserver,
        lease_duration=old_export.lease_duration, name=name,
    )
    server.exports[name] = (new_path, fs, authserver)
    authserver.pathname = str(new_path)
    if mode == FORWARD:
        cert = make_forwarding_pointer(old_key, old_path.location,
                                       str(new_path))
        server.master.set_forwarding_pointer(old_path.hostid, cert)
    else:
        cert = make_revocation_certificate(old_key, old_path.location)
        server.master.set_revocation(old_path.hostid, cert)
    if ca is not None:
        link = ca_name if ca_name is not None else name
        try:
            ca.decertify(link)
        except FsError as exc:
            if exc.code != ERR_NOENT:
                raise  # only a name never certified may be missing
        ca.certify(link, new_path)
        if mode == REVOKE:
            ca.publish_revocation(cert)
    server.metrics.counter("server.rollovers").inc()
    return RolloverResult(old_path=old_path, new_path=new_path,
                          certificate=cert, mode=mode)


def revoke_export(server, name: str = "default") -> Record:
    """Retire *server*'s export *name* with no successor.

    The export stops being served; later dials (and redials) for its
    HostID get the revocation certificate, which is also returned for
    fan-out.  Only the key's owner can do this — the signature needs
    the private key — which is the paper's whole revocation policy.
    """
    old_path, _fs, _authserver = server.exports[name]
    export = server.master.rw_export(old_path.hostid)
    if export is None:
        raise ValueError(f"export {name!r} is not being served")
    cert = make_revocation_certificate(export.key, old_path.location)
    server.master.set_revocation(old_path.hostid, cert)
    return cert


def fan_out_revocations(certificates, daemons=(), masters=(), ca=None,
                        authservers=(), metrics=None) -> int:
    """Push certificates everywhere at once; returns deliveries made.

    For each certificate: every server master in *masters* starts
    serving it to future dials of its HostID, every
    :class:`~repro.core.client.SfsClientDaemon` in *daemons* gets it
    out of band (evicting any cached mount — the storm hitting a
    populated HostID cache), and *ca*, if given, files revocations
    under ``/revocations`` for agents that poll revocation directories.
    Every :class:`~repro.core.authserv.AuthServer` in *authservers* gets
    its decision-cache epoch bumped once per sweep that verified at
    least one certificate (revocation or forwarding — a retired server
    key may have influenced who authenticated either way), so cached
    login decisions are not allowed to outlive the sweep; they lazily
    re-verify instead.  Bumps are cache bookkeeping, not certificate
    deliveries: they count as ``auth.cache.epoch_bumps`` on each
    authserver and never inflate the returned delivery total or
    ``keymgmt.revocations_fanned_out``.
    Forged certificates are skipped, not raised: a storm is exactly the
    place hostile junk shows up, and one bad certificate must not stop
    the sweep.
    """
    delivered = 0
    verified_any = False
    for cert in certificates:
        try:
            verified = verify_certificate(cert)
        except CertificateError:
            continue
        verified_any = True
        for master in masters:
            if verified.is_revocation:
                master.set_revocation(verified.hostid, cert)
            else:
                master.set_forwarding_pointer(verified.hostid, cert)
            delivered += 1
        for daemon in daemons:
            if daemon.submit_certificate(cert):
                delivered += 1
        if ca is not None and verified.is_revocation:
            ca.publish_revocation(cert)
            delivered += 1
    if verified_any:
        for authserver in authservers:
            authserver.bump_epoch()
    if metrics is not None:
        metrics.counter("keymgmt.revocations_fanned_out").inc(delivered)
    return delivered
