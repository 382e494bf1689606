"""The scenario assertion vocabulary: what a run must leave behind.

Every check is a function of the finished runtime returning a list of
failure strings (empty = pass); the engine runs the spec's whole
assertion set and reports *all* failures, not just the first — a chaos
run that breaks three invariants should say so in one pass.

The vocabulary maps to the issue's invariant classes:

* scheduler drain (``drain``) — no hung tasks once the timeline and
  workload finish;
* operation accounting (``all_ops_complete``, ``min_ops_completed``,
  ``max_op_errors``) — closed-loop clients completed what they offered,
  with an explicit bound on casualties where the scenario *earns* some
  (a rollover invalidates in-flight handles, at most one per session);
* namespace integrity (``no_wrong_links``, ``revoked_unreachable``) —
  zero wrong links resolved, revoked HostIDs evicted and replaced by
  poisoned local links;
* data integrity (``integrity``) — a marker file seeded before the
  storm re-reads bit-for-bit through the protocol afterwards;
* observability predicates (``counter``) — any world-registry counter
  compared against a bound, e.g. ``session.retargets >= clients``;
* control-plane liveness (``collector_state``, ``collector_flaps``,
  ``no_dead_sources``) — the flap-vs-dead distinction the boot beacon
  exists for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from ..control.collector import DEAD
from ..core.revocation import verify_certificate
from ..kernel.vfs import KernelError

_OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "<=": operator.le,
    "<": operator.lt,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class CheckHandler:
    fn: Callable            # (runtime, params) -> list[str]
    allowed_params: tuple[str, ...]


def _chk_drain(rt, params: dict) -> list[str]:
    failures = [f"hung task {task.name!r} never finished"
                for task in rt.blocked]
    failures.extend(
        f"task {task.name!r} died: {task.exception!r}"
        for task in rt.scheduler.tasks
        if task.failed and not task.daemon
    )
    return failures


def _chk_all_ops_complete(rt, params: dict) -> list[str]:
    failures = []
    if rt.total_errors:
        failures.append(f"{rt.total_errors} operation(s) failed")
    if rt.total_completed != rt.offered_ops:
        failures.append(
            f"completed {rt.total_completed} of {rt.offered_ops} "
            f"offered operations"
        )
    return failures


def _chk_min_ops_completed(rt, params: dict) -> list[str]:
    minimum = int(params["value"])
    if rt.total_completed < minimum:
        return [f"completed {rt.total_completed} ops, needed >= {minimum}"]
    return []


def _chk_max_op_errors(rt, params: dict) -> list[str]:
    bound = int(params["value"])
    if rt.total_errors > bound:
        return [f"{rt.total_errors} op errors, allowed at most {bound}"]
    return []


def _chk_counter(rt, params: dict) -> list[str]:
    name = str(params["name"])
    op = str(params.get("op", ">="))
    compare = _OPS.get(op)
    if compare is None:
        return [f"counter check: unknown operator {op!r}"]
    value = rt.world.metrics.counter(name).value
    bound = params["value"]
    if not compare(value, bound):
        return [f"counter {name} = {value}, wanted {op} {bound}"]
    return []


def _chk_auth_denied(rt, params: dict) -> list[str]:
    """The server-side denial count — a revoked or rotated-away user
    whose agent kept signing must show up here, cached decision or not.
    Defaults to ``>= 1``; any ``counter``-style op/value pair works."""
    op = str(params.get("op", ">="))
    compare = _OPS.get(op)
    if compare is None:
        return [f"auth_denied check: unknown operator {op!r}"]
    bound = params.get("value", 1)
    value = rt.world.metrics.counter("auth.logins_denied").value
    if not compare(value, bound):
        return [f"auth.logins_denied = {value}, wanted {op} {bound}"]
    return []


def _chk_no_wrong_links(rt, params: dict) -> list[str]:
    wrong = rt.world.metrics.counter("scenario.wrong_links").value
    failures = []
    if wrong:
        failures.append(f"{wrong} namespace resolution(s) returned a "
                        f"wrong link")
    if rt.expected_resolves:
        done = rt.world.metrics.counter("scenario.resolves").value
        if done < rt.expected_resolves:
            failures.append(f"resolver loops finished {done} of "
                            f"{rt.expected_resolves} lookups")
    return failures


def _chk_revoked_unreachable(rt, params: dict) -> list[str]:
    """Every revoked HostID must be evicted from every kernel client:
    no cached mount survives, and the local poisoned link (if the
    client ever saw the certificate) refuses future traversals."""
    from ..core.client import REVOKED_LINK_TARGET
    from ..core.pathnames import SelfCertifyingPath

    failures = []
    for cert in rt.revocations:
        verified = verify_certificate(cert)
        path = SelfCertifyingPath(verified.location, verified.hostid)
        for machine in rt.kernel_clients:
            daemon = machine.sfscd
            if verified.hostid in daemon._mounts:
                failures.append(
                    f"{machine.hostname}: revoked {path.mount_name} still "
                    f"mounted"
                )
            reader = machine.root_process()
            try:
                target = reader.readlink(f"/sfs/{path.mount_name}")
            except KernelError:  # never cached: nothing to check
                continue
            if target != REVOKED_LINK_TARGET:
                failures.append(
                    f"{machine.hostname}: /sfs/{path.mount_name} -> "
                    f"{target!r}, not the poisoned revocation link"
                )
    return failures


def _chk_integrity(rt, params: dict) -> list[str]:
    """Re-read every load server's pre-run marker file through the
    protocol and compare bit-for-bit."""
    failures = []
    for harness in rt.harnesses:
        try:
            data = rt.read_marker(harness)
        except Exception as exc:  # noqa: BLE001 - a dead server IS the failure
            failures.append(f"{harness.location}: marker re-read failed: "
                            f"{exc}")
            continue
        if data != rt.marker_content:
            failures.append(
                f"{harness.location}: marker corrupted "
                f"({len(data)} bytes back, {len(rt.marker_content)} written)"
            )
    return failures


def _chk_collector_state(rt, params: dict) -> list[str]:
    states = rt.world.control.collector.states()
    source = rt.machine(str(params["source"])).location
    want = str(params["state"])
    got = states.get(source)
    if got != want:
        return [f"collector sees {source} as {got!r}, expected {want!r}"]
    return []


def _chk_collector_flaps(rt, params: dict) -> list[str]:
    source = rt.machine(str(params["source"])).location
    record = rt.world.control.collector.sources.get(source)
    if record is None:
        return [f"collector never registered {source}"]
    minimum = int(params.get("value", 1))
    if record.flaps < minimum:
        return [f"{source} flapped {record.flaps} time(s), expected >= "
                f"{minimum}"]
    return []


def _chk_no_dead_sources(rt, params: dict) -> list[str]:
    states = rt.world.control.collector.states()
    return [f"collector declared {name} dead" for name, state
            in states.items() if state == DEAD]


CHECKS: dict[str, CheckHandler] = {
    "drain": CheckHandler(_chk_drain, ()),
    "all_ops_complete": CheckHandler(_chk_all_ops_complete, ()),
    "min_ops_completed": CheckHandler(_chk_min_ops_completed, ("value",)),
    "max_op_errors": CheckHandler(_chk_max_op_errors, ("value",)),
    "counter": CheckHandler(_chk_counter, ("name", "op", "value")),
    "auth_denied": CheckHandler(_chk_auth_denied, ("op", "value")),
    "no_wrong_links": CheckHandler(_chk_no_wrong_links, ()),
    "revoked_unreachable": CheckHandler(_chk_revoked_unreachable, ()),
    "integrity": CheckHandler(_chk_integrity, ()),
    "collector_state": CheckHandler(_chk_collector_state,
                                    ("source", "state")),
    "collector_flaps": CheckHandler(_chk_collector_flaps,
                                    ("source", "value")),
    "no_dead_sources": CheckHandler(_chk_no_dead_sources, ()),
}
