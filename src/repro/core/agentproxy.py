"""Agents over RPC: the modular agent interface and proxy agents.

Locally, the client master calls agent methods through a well-defined
interface; this module provides the same interface over Sun RPC, which
enables two things the paper describes:

* running the agent as a genuinely separate process that "communicates
  with the file system using RPC" and can be replaced at will (section
  2.3), and
* *proxy agents*: "Proxy agents could forward authentication requests to
  other SFS agents.  We hope to build a remote login utility similar to
  ssh that acts as a proxy SFS agent.  That way, users can automatically
  access their files when logging in to a remote machine." (2.5.1)

:class:`AgentServer` exposes an :class:`~repro.core.agent.Agent` on an
RPC peer; :class:`RemoteAgent` is the client-side stub implementing the
agent interface; chaining a RemoteAgent to a machine whose agent is
itself remote yields the ssh-like hop chain, with every hop recorded in
the home agent's audit trail via the request's ``via`` field.  Both
sides are generators, over the agent's methods and over ``call_task``.
"""

from __future__ import annotations

from ..rpc.peer import CallContext, Program, RpcPeer
from ..rpc.xdr import Record
from . import proto
from .agent import Agent, AgentRefused, AuditEntry


class AgentServer:
    """Serves one user's agent over RPC (the real keys stay here)."""

    def __init__(self, agent: Agent, peer: RpcPeer) -> None:
        self.agent = agent
        self.peer = peer
        peer.register(self._build_program())

    def _build_program(self) -> Program:
        program = Program("sfs-agent", proto.SFS_AGENT_PROGRAM,
                          proto.SFS_VERSION)
        program.add_proc(proto.PROC_SIGNREQ, "SIGNREQ",
                         proto.SignReqArgs, proto.SignReqRes, self._signreq)
        program.add_proc(proto.PROC_RESOLVE, "RESOLVE",
                         proto.ResolveArgs, proto.ResolveRes, self._resolve)
        program.add_proc(proto.PROC_REVCHECK, "REVCHECK",
                         proto.RevcheckArgs, proto.RevcheckRes,
                         self._revcheck)
        return program

    def _signreq(self, args: Record, ctx: CallContext):
        via = list(args.via)
        if via:
            self.agent.audit_log.append(
                AuditEntry("proxy", " -> ".join(via))
            )
        try:
            blob = yield from self.agent.sign_request(
                args.authinfo_bytes, args.seqno, args.key_index
            )
        except AgentRefused:
            return proto.SIGN_REFUSED, None
        return proto.SIGN_OK, blob

    def _resolve(self, args: Record, ctx: CallContext):
        target = yield from self.agent.resolve(args.name)
        if target is None:
            return proto.RESOLVE_NONE, None
        return proto.RESOLVE_LINK, target

    def _revcheck(self, args: Record, ctx: CallContext):
        return (yield from self.agent.check_revoked(args.location,
                                                    args.hostid))


class RemoteAgent:
    """The agent interface, implemented by RPC to an AgentServer.

    A client master can use this exactly like a local Agent.  *hop*
    names this machine/process in the audit path; chained proxies extend
    the list on each forward.
    """

    def __init__(self, peer: RpcPeer, user: str, hop: str,
                 via: list[str] | None = None) -> None:
        self._peer = peer
        self.user = user
        self._via = list(via or []) + [hop]

    @property
    def key_count(self) -> int:
        # The proxy cannot enumerate remote keys; report "at least one"
        # and let the remote side refuse indexes it does not have.
        return 1

    def sign_request(self, authinfo_bytes: bytes, seqno: int,
                     key_index: int = 0):
        disc, blob = yield from self._peer.call_task(
            proto.SFS_AGENT_PROGRAM, proto.SFS_VERSION, proto.PROC_SIGNREQ,
            proto.SignReqArgs,
            proto.SignReqArgs.make(
                authinfo_bytes=authinfo_bytes, seqno=seqno,
                key_index=key_index, via=self._via,
            ),
            proto.SignReqRes,
        )
        if disc != proto.SIGN_OK:
            raise AgentRefused(f"remote agent for {self.user} refused")
        return blob

    def resolve(self, name: str):
        disc, target = yield from self._peer.call_task(
            proto.SFS_AGENT_PROGRAM, proto.SFS_VERSION, proto.PROC_RESOLVE,
            proto.ResolveArgs, proto.ResolveArgs.make(name=name),
            proto.ResolveRes,
        )
        return target if disc == proto.RESOLVE_LINK else None

    def check_revoked(self, location: str, hostid: bytes):
        return (yield from self._peer.call_task(
            proto.SFS_AGENT_PROGRAM, proto.SFS_VERSION, proto.PROC_REVCHECK,
            proto.RevcheckArgs,
            proto.RevcheckArgs.make(location=location, hostid=hostid),
            proto.RevcheckRes,
        ))
