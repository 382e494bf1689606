"""The host-cost meter: exact Python calls per op, by layer.

Host CPU time spreads too widely on a small shared machine to gate a
change (one parent's median read 811, 1,194 and 1,262 µs/op across
three checks), but the calls a fixed op stream makes do not move at
all.  This test runs each of perfbench's workloads, read through its
public ``WORKLOADS``, at smoke size and a pinned seed: one warm-up
batch, then :data:`BATCHES` fixed batches under ``sys.setprofile``.
Every Python-level and built-in call is charged to a layer with
perfbench's own module → layer table: ``HANDLER_LAYERS`` first, then
the module that defines each ``BOUNDARIES`` callable.  A codec's
compiled function is ``rpc.marshal``; anything else is ``other``.

:data:`BUDGETS` are the committed counts, in calls per op.  A count
more than :data:`MARGIN` above its budget fails and names its layer and
workload.  The budget is a ratchet: a count more than the margin below
it fails too, until the change that lowered it lowers the budget.  The
counts repeat exactly across runs and across ``PYTHONHASHSEED`` values.
The meter cannot see time spent inside C (``pow``, the cipher,
``struct``) or how heavy a call is; ``cpu_us_per_op`` pairs remain the
evidence for a speed claim, and this gate is the one that does not
flake.

    PYTHONPATH=src python -m pytest tests/integration/test_host_cost_meter.py
"""

from __future__ import annotations

import gc
import sys
import types

import pytest

from perfbench import adapter
from perfbench.trace import BOUNDARIES, HANDLER_LAYERS
from perfbench.workloads import WORKLOADS

SEED = 2026
#: Timed batches after the warm-up one.
BATCHES = 2
#: How far a count may sit from its budget: a relative part plus half a
#: call per op, so that a layer of a few calls per op is not all noise.
MARGIN = (0.01, 0.5)

#: workload -> layer -> Python calls per op (smoke size, seed 2026).
BUDGETS = {
    "bulk-lan": {
        "core.channel": 25.0, "core.client": 29.8, "core.server": 19.7,
        "crypto.handle": 8.0, "crypto.mac": 18.3, "crypto.stream": 5.0,
        "fs": 35.7, "kernel": 17.0, "nfs3.server": 13.0, "other": 196.0,
        "rpc.marshal": 200.5, "rpc.peer": 97.7, "sim.clock": 33.2,
        "sim.disk": 3.8, "sim.network": 58.8, "sim.sched": 27.1,
        "total": 788.5,
    },
    "bulk-wan-d8": {
        "core.channel": 8.8, "core.client": 27.5, "core.server": 6.8,
        "crypto.handle": 3.6, "crypto.mac": 6.4, "crypto.stream": 1.7,
        "fs": 24.1, "kernel": 17.0, "nfs3.server": 6.8, "other": 121.9,
        "rpc.marshal": 140.8, "rpc.peer": 64.0, "sim.clock": 23.5,
        "sim.disk": 2.1, "sim.network": 39.2, "sim.sched": 19.2,
        "total": 513.4,
    },
    "fanout-1024": {
        "core.channel": 55.5, "core.client": 7.8, "core.server": 27.4,
        "crypto.handle": 8.9, "crypto.mac": 40.1, "crypto.stream": 10.1,
        "fs": 23.5, "nfs3.server": 10.8, "other": 296.0,
        "rpc.marshal": 142.6, "rpc.peer": 68.3, "sim.clock": 44.9,
        "sim.disk": 2.8, "sim.network": 52.5, "sim.sched": 106.3,
        "total": 897.5,
    },
    "smallfile-lan": {
        "core.channel": 42.0, "core.client": 59.1, "core.server": 32.2,
        "crypto.handle": 19.2, "crypto.mac": 30.8, "crypto.stream": 8.4,
        "fs": 52.6, "kernel": 62.2, "nfs3.server": 35.4, "other": 523.1,
        "rpc.marshal": 528.9, "rpc.peer": 225.2, "sim.clock": 81.6,
        "sim.disk": 9.4, "sim.network": 141.6, "sim.sched": 66.2,
        "total": 1918.0,
    },
}


def _layer_table() -> dict[str, str]:
    """``<module>`` or ``<module>.<class>`` -> layer: perfbench's handler
    table, then the module that defines each boundary callable (the
    first boundary wins)."""
    table = {}
    for layer, dotted in BOUNDARIES:
        obj = adapter.resolve(dotted)[2]
        module = getattr(obj, "__module__", None)
        if module is not None:
            table.setdefault(module, layer)
    table.update(HANDLER_LAYERS)
    return table


def meter(workload, batches: int = BATCHES) -> tuple[int, dict[str, int]]:
    """(ops, layer -> calls) over *batches* batches after one warm-up."""
    adapter.load()
    table = _layer_table()
    _forget_memos()
    stack = workload.build(SEED, True, "sfs")
    workload.run_batch(stack, SEED, 0, True)
    by_code: dict[types.CodeType, int] = {}

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            code = frame.f_code
            by_code[code] = by_code.get(code, 0) + 1

    ops = 0
    sys.setprofile(profile)
    try:
        for index in range(1, batches + 1):
            gc.collect()
            ops += workload.run_batch(stack, SEED, index, True).ops
    finally:
        sys.setprofile(None)
    layers: dict[str, int] = {}
    for code, count in by_code.items():
        layer = _layer(code, table)
        layers[layer] = layers.get(layer, 0) + count
    return ops, layers


def _forget_memos() -> None:
    """Empty every ``lru_cache`` in ``repro``.  A memo an earlier world
    filled holds keys equal to this world's but not the same objects,
    and each lookup would then cost an ``__eq__`` call that a process
    running one world never makes."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        for value in vars(module).values():
            owners = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *owners):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _layer(code: types.CodeType, table: dict[str, str]) -> str:
    if code.co_filename.startswith("<xdr "):
        return "rpc.marshal"
    module = _MODULES[code.co_filename]
    owner = code.co_qualname.partition(".")[0]
    return table.get(f"{module}.{owner}") or table.get(module, "other")


class _ModuleNames(dict):
    """File name -> module name, from ``sys.modules``, filled on demand."""

    def __missing__(self, filename):
        for name, module in list(sys.modules.items()):
            if getattr(module, "__file__", None) == filename:
                self[filename] = name
                return name
        self[filename] = None
        return None


_MODULES = _ModuleNames()


def per_op(ops: int, layers: dict[str, int]) -> dict[str, float]:
    out = {layer: round(count / ops, 1) for layer, count in layers.items()}
    out["total"] = round(sum(layers.values()) / ops, 1)
    return out


def over_budget(name: str, counts: dict[str, float]) -> list[str]:
    """Every layer of *name* outside its budget's margin, as a message."""
    budget = BUDGETS[name]
    rel, floor = MARGIN
    problems = []
    for layer in sorted(set(budget) | set(counts)):
        have, want = counts.get(layer, 0.0), budget.get(layer, 0.0)
        slack = want * rel + floor
        if have > want + slack:
            problems.append(f"{name}: {layer} rose to {have} calls/op "
                            f"(budget {want})")
        elif have < want - slack:
            problems.append(f"{name}: {layer} fell to {have} calls/op; "
                            f"lower its budget from {want}")
    return problems


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calls_per_op_within_budget(name):
    counts = per_op(*meter(WORKLOADS[name]))
    assert over_budget(name, counts) == [], counts


def test_counts_repeat_exactly():
    workload = WORKLOADS["smallfile-lan"]
    assert meter(workload) == meter(workload)


def test_a_planted_call_per_rpc_hop_fails_the_gate_and_names_rpc_peer(
        monkeypatch):
    """One extra Python call in every record an RPC peer receives — a
    wrapper defined as if in ``repro.rpc.peer`` — is caught."""
    from repro.rpc import peer

    original = peer.RpcPeer._receive
    planted = types.FunctionType(
        compile("def _receive(self, data):\n"
                "    return original(self, data)\n",
                peer.__file__, "exec").co_consts[0],
        {"__name__": peer.__name__, "original": original})
    monkeypatch.setattr(peer.RpcPeer, "_receive", planted)
    problems = over_budget("smallfile-lan",
                           per_op(*meter(WORKLOADS["smallfile-lan"])))
    assert any("rpc.peer rose" in problem for problem in problems), problems
    assert all(": rpc.peer " in problem or ": total " in problem
               for problem in problems), problems
