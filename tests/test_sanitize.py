"""Tests for the synchronization sanitizer (:mod:`repro.sanitize`).

Three groups:

* seeded-defect dynamic fixtures — an unannotated racy store, a dropped
  acquire, and a missing self-invalidation each produce exactly the
  expected finding, and their repaired twins are clean;
* regression shims — the annotation defects fixed in the shipped synclib
  (Treiber pop acquire, M&S dequeue link acquire, two-lock queue link
  annotations) are re-broken behind subclasses and the sanitizer must
  catch each one;
* the static lint pass — one fixture per rule, plus the shipped corpus
  staying error-free.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.config import config_for_cores
from repro.cpu.core import Core
from repro.cpu.isa import Cas, Load, SelfInvalidate, Store, WaitLoad
from repro.cpu.thread import ThreadCtx
from repro.mem.address import AddressMap
from repro.mem.regions import RegionAllocator
from repro.mc.litmus import CORPUS
from repro.mc.runner import run_schedule
from repro.protocols import make_protocol
from repro.sanitize.dynamic import analyze_trace, region_lookup
from repro.sanitize.findings import (
    KIND_CAS_UNCHECKED,
    KIND_DISCARDED_RESULT,
    KIND_RAW_ADDRESS,
    KIND_RELEASE_ON_DATA_STORE,
    KIND_STALE_READ_HAZARD,
    KIND_UNANNOTATED_RACE,
    KIND_UNBALANCED_BUCKETS,
    KIND_UNORDERED_ITERATION,
    KIND_WAITLOAD_NOT_SYNC,
    SEVERITY_ERROR,
    Finding,
    Report,
)
from repro.sanitize.lint import (
    KIND_WAITLOAD_DISCARDED,
    SIMULATOR_RULES,
    default_lint_targets,
    lint_paths,
    lint_source,
    simulator_lint_targets,
)
from repro.sim.engine import Simulator
from repro.synclib.locked_structures import EMPTY, DoubleLockQueue
from repro.synclib.msqueue import NULL, MichaelScottQueue
from repro.synclib.tatas import TatasLock
from repro.synclib.treiber import TreiberStack
from repro.trace.analysis import summarize
from repro.trace.recorder import TracingProtocol

SANITIZE_PROTOCOLS = ["MESI", "DeNovoSync0", "DeNovoSync"]


class TracedMachine:
    """A MiniMachine twin whose protocol records an access trace."""

    def __init__(self, protocol_name: str = "DeNovoSync", num_cores: int = 4):
        self.config = config_for_cores(num_cores)
        self.allocator = RegionAllocator(AddressMap(self.config))
        self.protocol = TracingProtocol(
            make_protocol(protocol_name, self.config, self.allocator)
        )
        self.sim = Simulator()
        self.cores = [Core(i, self.sim, self.protocol) for i in range(num_cores)]

    def ctx(self, core_id: int) -> ThreadCtx:
        return ThreadCtx(
            core_id=core_id,
            num_cores=self.config.num_cores,
            config=self.config,
            allocator=self.allocator,
            rng=random.Random(core_id),
        )

    def run(self, programs, initial_values=None, max_events: int = 5_000_000):
        for addr, value in (initial_values or {}).items():
            self.protocol.memory.write(addr, value)
        for core, program in zip(self.cores, programs):
            core.start(program)
        self.sim.run(max_events=max_events)
        stuck = [c.core_id for c in self.cores[: len(programs)] if not c.done]
        assert not stuck, f"cores {stuck} deadlocked at cycle {self.sim.now}"
        return list(self.protocol.records)

    def analyze(self):
        return analyze_trace(
            self.protocol.records, region_of=region_lookup(self.allocator)
        )


# ---------------------------------------------------------------------------
# Seeded-defect fixtures: each produces exactly the expected finding.
# ---------------------------------------------------------------------------


def test_unannotated_racy_store_is_flagged():
    """Two cores plain-store the same word: one unannotated-race finding."""
    machine = TracedMachine()
    word = machine.allocator.alloc("race.x", 1, line_align=True).base

    def storer(value):
        yield Store(word, value)

    machine.run([storer(1), storer(2)])
    analysis = machine.analyze()

    assert len(analysis.findings) == 1
    finding = analysis.findings[0]
    assert finding.kind == KIND_UNANNOTATED_RACE
    assert finding.severity == SEVERITY_ERROR
    assert finding.details["addr"] == word
    cores = {finding.details["first"]["core"], finding.details["second"]["core"]}
    assert cores == {0, 1}
    assert analysis.racy_unannotated_pairs == 1
    assert analysis.stale_read_hazards == 0


def _message_passing(machine: TracedMachine, *, acquire: bool):
    data = machine.allocator.alloc("mp.data", 1, line_align=True)
    flag = machine.allocator.alloc_sync("mp.flag").base

    def writer():
        yield Store(data.base, 41)
        yield Store(flag, 1, sync=True, release=True)

    def reader():
        yield WaitLoad(flag, lambda v: v == 1, sync=True, acquire=acquire)
        yield SelfInvalidate((data.region,))
        _ = yield Load(data.base)

    machine.run([writer(), reader()])
    return data.base


def test_message_passing_with_acquire_is_clean():
    machine = TracedMachine()
    _message_passing(machine, acquire=True)
    analysis = machine.analyze()
    assert analysis.findings == []
    assert analysis.racy_unannotated_pairs == 0


def test_dropped_acquire_is_flagged():
    """Waiting without acquire=True leaves the payload access unordered."""
    machine = TracedMachine()
    payload = _message_passing(machine, acquire=False)
    analysis = machine.analyze()

    assert len(analysis.findings) == 1
    finding = analysis.findings[0]
    assert finding.kind == KIND_UNANNOTATED_RACE
    assert finding.details["addr"] == payload
    kinds = {finding.details["first"]["kind"], finding.details["second"]["kind"]}
    assert kinds == {"store", "load"}
    assert analysis.racy_unannotated_pairs == 1


def _two_round_handoff(machine: TracedMachine, *, invalidate_second: bool):
    """Two release/acquire rounds with an ack back-channel; the reader
    caches the payload in round 1, and round 2 re-reads it — stale
    unless it self-invalidates again."""
    data = machine.allocator.alloc("hand.data", 1, line_align=True)
    flag = machine.allocator.alloc_sync("hand.flag").base
    ack = machine.allocator.alloc_sync("hand.ack").base

    def writer():
        yield Store(data.base, 1)
        yield Store(flag, 1, sync=True, release=True)
        yield WaitLoad(ack, lambda v: v == 1, sync=True, acquire=True)
        yield Store(data.base, 2)
        yield Store(flag, 2, sync=True, release=True)

    def reader():
        yield WaitLoad(flag, lambda v: v >= 1, sync=True, acquire=True)
        yield SelfInvalidate((data.region,))
        _ = yield Load(data.base)
        yield Store(ack, 1, sync=True, release=True)
        yield WaitLoad(flag, lambda v: v >= 2, sync=True, acquire=True)
        if invalidate_second:
            yield SelfInvalidate((data.region,))
        _ = yield Load(data.base)

    machine.run([writer(), reader()])
    return data.base


def test_handoff_with_selfinv_is_clean():
    machine = TracedMachine()
    _two_round_handoff(machine, invalidate_second=True)
    analysis = machine.analyze()
    assert analysis.findings == []


def test_missing_selfinv_region_is_flagged():
    """Skipping the second SelfInvalidate: one stale-read hazard."""
    machine = TracedMachine()
    payload = _two_round_handoff(machine, invalidate_second=False)
    analysis = machine.analyze()

    assert len(analysis.findings) == 1
    finding = analysis.findings[0]
    assert finding.kind == KIND_STALE_READ_HAZARD
    assert finding.severity == SEVERITY_ERROR
    assert finding.details["addr"] == payload
    assert finding.details["writer_core"] == 0
    assert finding.details["reader_core"] == 1
    assert analysis.racy_unannotated_pairs == 0
    assert analysis.stale_read_hazards == 1


def test_summarize_exposes_racy_pairs():
    broken = TracedMachine()
    _message_passing(broken, acquire=False)
    assert summarize(broken.protocol.records).racy_unannotated_pairs == 1

    clean = TracedMachine()
    _message_passing(clean, acquire=True)
    assert summarize(clean.protocol.records).racy_unannotated_pairs == 0


# ---------------------------------------------------------------------------
# The shipped litmus corpus is clean under every protocol.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("litmus_protocol", SANITIZE_PROTOCOLS)
@pytest.mark.parametrize("test_name", sorted(CORPUS))
def test_litmus_corpus_is_clean(test_name, litmus_protocol):
    execution = run_schedule(CORPUS[test_name], litmus_protocol)
    assert execution.completed
    analysis = analyze_trace(
        execution.trace,
        region_of=region_lookup(execution.instance.allocator),
    )
    assert [f.message for f in analysis.findings] == []


# ---------------------------------------------------------------------------
# Regression shims: re-break the fixed synclib annotations.
# ---------------------------------------------------------------------------


class _AcquirelessTreiber(TreiberStack):
    """Treiber stack with the pre-fix pop: no acquire on the top read."""

    def pop(self, ctx):
        while True:
            top = yield Load(self.top, sync=True)  # regression: acquire dropped
            if top == NULL:
                return None
            yield SelfInvalidate((self.nodes,))
            nxt = yield Load(top + 1)
            old = yield Cas(self.top, top, nxt, release=True)
            if old == top:
                value = yield Load(top)
                return value


def _run_stack(stack_cls):
    machine = TracedMachine()
    stack = stack_cls(
        machine.allocator, nodes_per_thread=1, nthreads=2,
        name="tr", software_backoff=False,
    )

    def pusher():
        yield from stack.push(machine.ctx(0), 7)

    def popper():
        while True:
            value = yield from stack.pop(machine.ctx(1))
            if value is not None:
                return

    machine.run([pusher(), popper()])
    return machine.analyze()


def test_treiber_pop_acquire_regression():
    analysis = _run_stack(_AcquirelessTreiber)
    assert analysis.racy_unannotated_pairs >= 1
    assert any(f.kind == KIND_UNANNOTATED_RACE for f in analysis.findings)

    assert _run_stack(TreiberStack).findings == []


class _AcquirelessMSQueue(MichaelScottQueue):
    """M&S queue with the pre-fix dequeue: no acquire on the link read."""

    def dequeue(self, ctx):
        while True:
            head = yield Load(self.head, sync=True)
            tail = yield Load(self.tail, sync=True)
            nxt = yield Load(head + 1, sync=True)  # regression: acquire dropped
            head2 = yield Load(self.head, sync=True)
            if head == head2:
                if head == tail:
                    if nxt == NULL:
                        return None
                    _ = yield Cas(self.tail, tail, nxt)
                else:
                    yield SelfInvalidate((self.values,))
                    value = yield Load(nxt)
                    old = yield Cas(self.head, head, nxt, release=True)
                    if old == head:
                        return value


def _run_queue(queue_cls):
    machine = TracedMachine()
    queue = queue_cls(
        machine.allocator, nodes_per_thread=1, nthreads=2,
        name="msq", software_backoff=False,
    )

    def enqueuer():
        yield from queue.enqueue(machine.ctx(0), 5)

    def dequeuer():
        while True:
            value = yield from queue.dequeue(machine.ctx(1))
            if value is not None:
                return

    machine.run([enqueuer(), dequeuer()], initial_values=queue.initial_values())
    return machine.analyze()


def test_msqueue_dequeue_acquire_regression():
    analysis = _run_queue(_AcquirelessMSQueue)
    assert analysis.racy_unannotated_pairs >= 1
    assert any(f.kind == KIND_UNANNOTATED_RACE for f in analysis.findings)

    assert _run_queue(MichaelScottQueue).findings == []


class _RacyLinkDLQ(DoubleLockQueue):
    """Two-lock queue with the pre-fix plain link store/load."""

    def enqueue(self, ctx, value):
        node = self._alloc_node(ctx.core_id)
        yield Store(node, value)
        yield Store(node + 1, 0)
        token = yield from self.tail_lock.acquire(ctx)
        yield SelfInvalidate((self.region,))
        tail_node = yield Load(self.tail)
        yield Store(tail_node + 1, node)  # regression: plain data store
        yield Store(self.tail, node)
        yield from self.tail_lock.release(token)

    def dequeue(self, ctx):
        token = yield from self.head_lock.acquire(ctx)
        yield SelfInvalidate((self.region,))
        head_node = yield Load(self.head)
        nxt = yield Load(head_node + 1)  # regression: plain data load
        if nxt == 0:
            yield from self.head_lock.release(token)
            return EMPTY
        value = yield Load(nxt)
        yield Store(self.head, nxt)
        yield from self.head_lock.release(token)
        return value


def _run_two_lock_queue(queue_cls):
    machine = TracedMachine()
    head_lock = TatasLock(machine.allocator, name="dlq.hl", software_backoff=False)
    tail_lock = TatasLock(machine.allocator, name="dlq.tl", software_backoff=False)
    queue = queue_cls(
        machine.allocator, head_lock, tail_lock,
        nodes_per_thread=1, nthreads=2, name="dlq",
    )

    def enqueuer():
        yield from queue.enqueue(machine.ctx(0), 9)

    def dequeuer():
        while True:
            value = yield from queue.dequeue(machine.ctx(1))
            if value is not EMPTY:
                return

    machine.run([enqueuer(), dequeuer()], initial_values=queue.initial_values())
    return machine.analyze()


def test_double_lock_queue_link_regression():
    analysis = _run_two_lock_queue(_RacyLinkDLQ)
    assert analysis.racy_unannotated_pairs >= 1
    assert any(f.kind == KIND_UNANNOTATED_RACE for f in analysis.findings)

    assert _run_two_lock_queue(DoubleLockQueue).findings == []


# ---------------------------------------------------------------------------
# The static lint pass.
# ---------------------------------------------------------------------------


def _kinds(findings):
    return sorted(f.kind for f in findings)


def test_lint_discarded_result():
    source = (
        "def prog(stack, x):\n"
        "    yield Cas(x, 0, 1)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_DISCARDED_RESULT]


def test_lint_sanctions_explicit_discard():
    source = (
        "def prog(x):\n"
        "    _ = yield Cas(x, 0, 1)\n"
        "    _ = yield Fai(x)\n"
    )
    assert lint_source(source) == []


def test_lint_cas_success_unchecked():
    source = (
        "def prog(x):\n"
        "    old = yield Cas(x, 0, 1)\n"
        "    yield Load(x, sync=True)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_CAS_UNCHECKED]

    checked = (
        "def prog(x):\n"
        "    old = yield Cas(x, 0, 1)\n"
        "    if old == 0:\n"
        "        return True\n"
    )
    assert lint_source(checked) == []


def test_lint_waitload_not_sync():
    source = (
        "def prog(flag):\n"
        "    yield WaitLoad(flag, lambda v: v == 1, sync=False)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_WAITLOAD_NOT_SYNC]


def test_lint_waitload_discard_warning():
    unpinned = (
        "def prog(flag):\n"
        "    yield WaitLoad(flag, lambda v: v >= 1, sync=True)\n"
    )
    findings = lint_source(unpinned)
    assert _kinds(findings) == [KIND_WAITLOAD_DISCARDED]
    assert all(f.severity != SEVERITY_ERROR for f in findings)

    pinned = (
        "def prog(flag):\n"
        "    yield WaitLoad(flag, lambda v: v == 1, sync=True)\n"
    )
    assert lint_source(pinned) == []


def test_lint_release_on_data_store():
    source = (
        "def prog(x):\n"
        "    yield Store(x, 1, release=True)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_RELEASE_ON_DATA_STORE]

    annotated = (
        "def prog(x):\n"
        "    yield Store(x, 1, sync=True, release=True)\n"
    )
    assert lint_source(annotated) == []


def test_lint_raw_address():
    source = (
        "def prog():\n"
        "    yield Load(128, sync=True)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_RAW_ADDRESS]


def test_lint_unbalanced_buckets():
    source = (
        "def prog(x):\n"
        "    yield PushBucket('cs')\n"
        "    yield Load(x, sync=True)\n"
    )
    assert _kinds(lint_source(source)) == [KIND_UNBALANCED_BUCKETS]

    balanced = (
        "def prog(x):\n"
        "    yield PushBucket('cs')\n"
        "    yield Load(x, sync=True)\n"
        "    yield PopBucket('cs')\n"
    )
    assert lint_source(balanced) == []


def test_lint_resolves_a_prebuilt_op():
    """``yield self._grab`` is the Fai its class's ``__init__`` built."""
    source = (
        "class Lock:\n"
        "    def __init__(self, addr):\n"
        "        self._grab = Fai(addr)\n"
        "    def acquire(self):\n"
        "        yield self._grab\n"
    )
    findings = lint_source(source)
    assert _kinds(findings) == [KIND_DISCARDED_RESULT]
    assert findings[0].details["line"] == 5

    bound = source.replace(
        "        yield self._grab", "        t = yield self._grab\n        return t"
    )
    assert lint_source(bound) == []


def test_lint_resolves_prebuilt_per_slot_ops():
    source = (
        "class Lock:\n"
        "    def __init__(self, flags):\n"
        "        self._cas = [Cas(f, 0, 1) for f in flags]\n"
        "        self._go = [\n"
        "            WaitLoad(f, lambda v: v == 1, sync=True) for f in flags\n"
        "        ]\n"
        "        self._set = [\n"
        "            WaitLoad(f, lambda v: v >= 1, sync=True) for f in flags\n"
        "        ]\n"
        "    def acquire(self, slot):\n"
        "        old = yield self._cas[slot]\n"
        "        yield self._go[slot]\n"
        "        yield self._set[slot]\n"
    )
    assert _kinds(lint_source(source)) == [KIND_CAS_UNCHECKED, KIND_WAITLOAD_DISCARDED]
    # The same names unindexed are lists, not ops.
    unindexed = source.replace("[slot]", "")
    assert lint_source(unindexed) == []


def test_shipped_lint_corpus_has_no_errors():
    findings, linted = lint_paths(default_lint_targets())
    errors = [f for f in findings if f.severity == SEVERITY_ERROR]
    assert errors == []
    assert len(linted) >= 10


# ---------------------------------------------------------------------------
# The unordered-iteration determinism rule (simulator sources).
# ---------------------------------------------------------------------------


def _order_kinds(source):
    return _kinds(lint_source(source, rules=SIMULATOR_RULES))


def test_unordered_iteration_flags_set_sources():
    for body in (
        "    for t in {1, 2, 3}:\n        f(t)\n",
        "    s = set(xs)\n    for t in s:\n        f(t)\n",
        "    targets = sharers - {core}\n    for t in targets:\n        f(t)\n",
        "    [f(t) for t in sharers | {core}]\n",
    ):
        source = "def run(sharers, core, xs, f):\n" + body
        assert _order_kinds(source) == [KIND_UNORDERED_ITERATION], body


def test_unordered_iteration_sanctions_sorted_wrapper():
    source = (
        "def run(sharers, core, f):\n"
        "    targets = sharers - {core}\n"
        "    for t in sorted(targets):\n"
        "        f(t)\n"
    )
    assert _order_kinds(source) == []


def test_unordered_iteration_exempts_order_insensitive_consumers():
    source = (
        "def run(targets, rtt):\n"
        "    targets = targets & {1, 2}\n"
        "    worst = max(rtt(t) for t in targets)\n"
        "    count = sum(1 for t in targets)\n"
        "    others = {t + 1 for t in targets}\n"
        "    return worst, count, others\n"
    )
    assert _order_kinds(source) == []


def test_unordered_iteration_only_runs_on_simulator_rules():
    source = "def run(f):\n    for t in {1, 2}:\n        f(t)\n"
    assert lint_source(source) == []  # kernel rules: not in scope


def test_simulator_corpus_has_no_unordered_iteration():
    findings, linted = lint_paths(simulator_lint_targets(), rules=SIMULATOR_RULES)
    assert findings == []
    assert len(linted) >= 20


def test_rebroken_mesi_invalidation_fanout_is_flagged():
    """Unwrapping the sorted() around MESI's invalidation fan-out must
    re-trigger the rule (regression guard for the shipped fix)."""
    import repro.protocols.mesi as mesi_mod

    source = open(mesi_mod.__file__).read()
    fixed = "for target in sorted(targets):"
    assert fixed in source
    rebroken = source.replace(fixed, "for target in targets:")
    findings = lint_source(rebroken, "mesi.py", rules=SIMULATOR_RULES)
    assert _kinds(findings) == [KIND_UNORDERED_ITERATION]
    assert all(f.details["function"] == "_obtain_modified" for f in findings)


# ---------------------------------------------------------------------------
# Report plumbing and the CLI target.
# ---------------------------------------------------------------------------


def test_report_round_trip():
    report = Report(
        findings=[
            Finding(
                kind=KIND_UNANNOTATED_RACE, severity=SEVERITY_ERROR,
                message="m", site="word 8", details={"addr": 8},
            ),
            Finding(
                kind=KIND_WAITLOAD_DISCARDED, severity="warning",
                message="w", site="f.py:3",
            ),
        ],
        cells=[{"cell": "tatas/counter x MESI", "findings": 1}],
        lint_files=["f.py"],
    )
    assert not report.clean
    assert len(report.errors) == 1 and len(report.warnings) == 1
    payload = json.loads(report.to_json())
    assert payload["clean"] is False
    assert payload["counts"][KIND_UNANNOTATED_RACE] == 1

    back = Report.from_json(report.to_json())
    assert back.findings == report.findings
    assert back.cells == report.cells
    assert back.lint_files == report.lint_files


def test_cli_sanitize_smoke(tmp_path, capsys):
    from repro.harness.cli import main

    out = tmp_path / "sanitize.json"
    rc = main([
        "sanitize", "--protocols", "MESI", "--jobs", "2",
        "--scale", "0.05", "--cores", "16", "--sanitize-out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["clean"] is True
    assert payload["cells"]
    stdout = capsys.readouterr().out
    assert "dynamic cells clean" in stdout
