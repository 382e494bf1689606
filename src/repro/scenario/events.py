"""The scenario event vocabulary: what a timeline entry can do.

Each event type is a handler applied at its scheduled virtual time by
the engine's timeline driver.  Handlers receive the live runtime (the
built world, machines by alias, harnesses, daemons, fleet) and the
event's parameter dict — already validated against
``allowed_params`` when the spec compiled, so a handler can trust its
inputs.

The vocabulary covers the chaos matrix from the issue: crash/restart
(with automatic reboot timers scheduled *relative to the crash*, so
ordering survives a lagging driver), adversary windows that expand into
an on/off pair, WAN re-profiling of live links, server key rollover
with live clients attached, revocation-certificate storms against
populated HostID caches, lease-invalidation write bursts, and manual
control-plane ticks for liveness-flap scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from ..keymgmt.rollover import fan_out_revocations, revoke_export, \
    rollover_export
from ..load.workload import OpMix, OpStream
from ..rpc.peer import RpcBusy, RpcError
from ..sim.network import ChaosAdversary, NetworkParameters
from ..sim.sched import Sleep


@dataclass(frozen=True)
class EventHandler:
    fn: Callable            # (runtime, params) -> None
    allowed_params: tuple[str, ...]


def _ev_crash(rt, params: dict) -> None:
    machine = rt.machine(params.get("server", "primary"))
    if machine.master.down:
        return                  # a crash point beat the timeline to it
    machine.crash()
    rt.count("scenario.crashes")
    restart_after = params.get("restart_after")
    if restart_after is not None:
        # Relative to the crash that just happened, via a clock timer:
        # the reboot then fires from inside Clock.advance, whoever is
        # advancing the clock.
        machine.schedule_restart(rt.clock.now + float(restart_after))


def _ev_restart(rt, params: dict) -> None:
    machine = rt.machine(params.get("server", "primary"))
    if machine.master.down:
        machine.restart()
        rt.count("scenario.restarts")


def _ev_adversary(rt, params: dict) -> None:
    location = params.get("location")
    if location is not None:
        location = rt.machine(location).location
    drop = float(params.get("drop", 0.0))
    corrupt = float(params.get("corrupt", 0.0))
    duplicate = float(params.get("duplicate", 0.0))
    base_seed = (rt.spec.seed << 12) ^ (0xC4A05 + rt.next_adversary())
    counter = [0]

    def factory():
        # One rng per link so per-link fault counters are independent
        # but the whole window is a pure function of the scenario seed.
        counter[0] += 1
        return ChaosAdversary(
            random.Random(base_seed + counter[0]),
            drop_rate=drop, corrupt_rate=corrupt,
            duplicate_rate=duplicate,
        )

    rt.world.set_wire_adversary(factory, existing=True, location=location)
    rt.count("scenario.adversary_windows")
    duration = params.get("duration")
    if duration is not None:
        def lift() -> None:
            rt.world.set_wire_adversary(None, existing=True,
                                        location=location)

        rt.clock.call_at(rt.clock.now + float(duration), lift)


def _ev_wan(rt, params: dict) -> None:
    machine = rt.machine(params.get("location", "primary"))
    wan = NetworkParameters.wan()
    profile = NetworkParameters(
        latency=float(params.get("latency", wan.latency)),
        bandwidth=float(params.get("bandwidth", wan.bandwidth)),
        per_message_overhead=int(params.get("overhead",
                                            wan.per_message_overhead)),
    )
    changed = rt.world.apply_link_profile(machine.location, profile)
    rt.count("scenario.link_changes")
    rt.count("scenario.links_reprofiled", changed)


def _ev_rollover(rt, params: dict) -> None:
    alias = params.get("server", "primary")
    machine = rt.machine(alias)
    ca = None
    ca_name = params.get("ca_name")
    if params.get("update_ca"):
        if rt.fleet is None:
            raise RuntimeError("rollover update_ca without a fleet CA")
        ca = rt.fleet.ca
    result = rollover_export(
        machine, name="default", mode=params.get("mode", "forward"),
        ca=ca, ca_name=ca_name,
    )
    rt.rollovers.append(result)
    rt.count("scenario.rollovers")
    if params.get("fan_out"):
        fan_out_revocations([result.certificate], daemons=rt.daemons,
                            authservers=rt.authservers,
                            metrics=rt.world.metrics)


def _ev_revoke(rt, params: dict) -> None:
    """The revocation storm: retire several extra servers at once and
    push the certificates at every client daemon's populated cache."""
    targets = params.get("targets", "all")
    extras = rt.extra_servers
    if targets != "all":
        extras = extras[:int(targets)]
    certificates = [revoke_export(machine) for machine in extras]
    rt.revocations.extend(certificates)
    rt.count("scenario.revocations", len(certificates))
    ca = rt.fleet.ca if (params.get("via_ca") and rt.fleet) else None
    if params.get("fan_out", True) or ca is not None:
        daemons = rt.daemons if params.get("fan_out", True) else ()
        fan_out_revocations(certificates, daemons=daemons, ca=ca,
                            authservers=rt.authservers,
                            metrics=rt.world.metrics)


def _ev_lease_storm(rt, params: dict) -> None:
    """A write burst from one session: every *other* session holding
    read leases on the seeded files gets invalidation callbacks."""
    harness = rt.harness_for(params.get("server", "primary"))
    writes = int(params.get("writes", 16))
    io_size = int(params.get("io_size", 4096))
    session = harness.sessions[0]
    stream = OpStream(
        harness.handles, OpMix(getattr_weight=0.0, read_weight=0.0,
                               write_weight=1.0),
        io_size, seed=(rt.spec.seed << 8) ^ 0xB57,
    )

    def burst():
        for _write in range(writes):
            yield from harness._run_op(session, stream, rt.storm_report)

    rt.scheduler.spawn(burst(), name=f"lease-storm-{harness.location}")
    rt.count("scenario.lease_storm_writes", writes)


def _ev_control_tick(rt, params: dict) -> None:
    rt.world.control.tick()
    rt.count("scenario.control_ticks")


def _ev_login_storm(rt, params: dict) -> None:
    """Poisson login arrivals over the pre-built auth accounts.

    Each arrival is one ``login_task`` on the next account's session
    (round-robin), sharing the primary's admission queue with the
    workload.  Outcomes land in counters: ``scenario.logins_ok``,
    ``scenario.logins_denied`` (the server said no — e.g. the user was
    revoked mid-storm), ``scenario.logins_shed`` (admission backoff
    exhausted), ``scenario.login_errors`` (anything else, which a
    healthy scenario asserts to be zero).
    """
    if not rt.login_sessions:
        raise RuntimeError("login_storm without topology.login_users")
    rate = float(params.get("rate", 200.0))
    duration = float(params.get("duration", 0.1))
    rng = random.Random((rt.spec.seed << 16) ^ 0xA07 ^ rt.next_storm())

    def login_once(session, agent):
        try:
            authno = yield from session.login_task(agent)
        except RpcBusy:
            rt.count("scenario.logins_shed")
            return
        except RpcError:
            rt.count("scenario.login_errors")
            return
        rt.count("scenario.logins_ok" if authno > 0
                 else "scenario.logins_denied")

    def arrivals():
        deadline = rt.clock.now + duration
        index = 0
        while rt.clock.now < deadline:
            yield Sleep(rng.expovariate(rate))
            session, agent = rt.login_sessions[
                index % len(rt.login_sessions)
            ]
            rt.scheduler.spawn(login_once(session, agent),
                               name=f"login-storm-{index}")
            index += 1
        rt.count("scenario.login_arrivals", index)

    rt.scheduler.spawn(arrivals(), name="login-storm-arrivals")
    rt.count("scenario.login_storms")


def _ev_user_key_change(rt, params: dict) -> None:
    """Revoke or rotate one auth account's key on the live authserver.

    Either way the eviction hooks fire synchronously, so any cached
    login decision for the old key dies *before* the next validate — a
    storm running across this event must see the change immediately.
    ``mode="rotate"`` with ``update_agent`` also re-arms the account's
    agent with the new key (the user who rotated on purpose);
    without it the agent keeps signing with the dead key and is locked
    out, exactly like a revocation.
    """
    user = str(params["user"])
    mode = str(params.get("mode", "revoke"))
    machine = rt.machine(params.get("server", "primary"))
    authserver = machine.exports["default"][2]
    if mode == "revoke":
        if not authserver.revoke_user(user):
            raise RuntimeError(f"user_key_change: unknown user {user!r}")
        rt.count("scenario.users_revoked")
    elif mode == "rotate":
        from ..core.authserv import UserRecord
        from ..crypto.rabin import generate_key

        record = authserver.local_db.lookup_user(user)
        if record is None:
            raise RuntimeError(f"user_key_change: unknown user {user!r}")
        new_key = generate_key(768, rt.world.rng)
        authserver.local_db.add_user(UserRecord(
            user, record.uid, record.gid, record.groups,
            new_key.public_key.to_bytes(),
        ))
        if params.get("update_agent"):
            from ..core.agent import Agent

            index = rt.login_accounts.index(user)
            session, _old_agent = rt.login_sessions[index]
            agent = Agent(user, rt.world.rng)
            agent.add_key(new_key)
            rt.login_sessions[index] = (session, agent)
        rt.count("scenario.users_rotated")
    else:
        raise RuntimeError(f"user_key_change: unknown mode {mode!r}")
    rt.count("scenario.user_key_changes")


EVENT_TYPES: dict[str, EventHandler] = {
    "crash": EventHandler(_ev_crash, ("server", "restart_after")),
    "restart": EventHandler(_ev_restart, ("server",)),
    "adversary": EventHandler(
        _ev_adversary,
        ("duration", "drop", "corrupt", "duplicate", "location"),
    ),
    "wan": EventHandler(_ev_wan,
                        ("location", "latency", "bandwidth", "overhead")),
    "rollover": EventHandler(
        _ev_rollover, ("server", "mode", "update_ca", "ca_name", "fan_out"),
    ),
    "revoke": EventHandler(_ev_revoke, ("targets", "fan_out", "via_ca")),
    "lease_storm": EventHandler(_ev_lease_storm,
                                ("server", "writes", "io_size")),
    "control_tick": EventHandler(_ev_control_tick, ()),
    "login_storm": EventHandler(_ev_login_storm, ("rate", "duration")),
    "user_key_change": EventHandler(
        _ev_user_key_change, ("user", "mode", "server", "update_agent"),
    ),
}
