"""Event-stream contracts of the compiled-default tool.

Three guarantees pin down the pay-per-subscription model:

* **Routing** — when a probe subscribes to events, the compiled-default
  tool runs the check on the walker: it emits the walker's event sequence
  over the whole undefinedness suite and builds neither the closure IR nor
  the bytecode.
* **Kind filtering** — a probe subscribing to a strict subset of kinds
  sees exactly the broadcast stream filtered to those kinds, in order,
  and an unsubscribed kind is never delivered.
* **Null subscription** — a probe subscribing to *no* kinds keeps the run
  on the selected engine: the bytecode program runs, the probe sees zero
  events, and only ``finish`` fires.

The hypothesis property tests at the bottom pin the arena memory store:
an :class:`~repro.core.memory.ArenaBytes` view must be observationally
byte-equal to the plain ``list[Byte]`` store under arbitrary interleaved
reads and writes, and a whole arena-backed :class:`Memory` must agree
with a dict-backed one under randomized alloc/kill/read/write.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import ctypes as ct
from repro.core.config import CheckerOptions
from repro.core.kcc import KccTool, _probes_need_events
from repro.core.memory import ArenaBytes, Memory, StorageKind
from repro.core.values import ConcreteByte, PointerValue, UnknownByte
from repro.events import Probe, TraceRecorderProbe
from repro.suites.ubsuite import generate_undefinedness_suite

SUITE = generate_undefinedness_suite()

COMPILED = KccTool(CheckerOptions(), run_static_checks=False)
WALKER = KccTool(CheckerOptions(engine="walker"), run_static_checks=False)


class KindRecorder(Probe):
    """A minimal selective subscriber: records event dicts and the run end."""

    name = "kind-recorder"

    def __init__(self, subscribes=None):
        self.subscribes = subscribes
        self.events = []
        self.end = None

    def on_event(self, event):
        self.events.append(event.to_dict())

    def finish(self, end):
        self.end = end.status


def run_probed(tool, source, name, *probes):
    compiled = tool.compile_unit(source, filename=name)
    if not compiled.ok:
        return None, compiled
    return tool.run_unit(compiled, probes=list(probes)), compiled


def assert_ran_on_the_walker(compiled):
    """Neither the closure IR nor the bytecode was built for the unit."""
    assert compiled._lowered == {}
    assert compiled._bytecode == {}


# ---------------------------------------------------------------------------
# Routing: an all-kinds subscription runs on the walker
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", SUITE.cases, ids=lambda c: c.name)
def test_compiled_tool_event_stream_is_walker_identical(case):
    compiled_probe = TraceRecorderProbe(filename=case.name)
    walker_probe = TraceRecorderProbe(filename=case.name)
    compiled_report, compiled = run_probed(COMPILED, case.source, case.name,
                                           compiled_probe)
    walker_report, _ = run_probed(WALKER, case.source, case.name, walker_probe)
    if compiled_report is None:
        assert walker_report is None
        return
    # The compiled-default tool sent the probed run to the walker.
    assert_ran_on_the_walker(compiled)
    assert compiled_report.outcome.describe() == walker_report.outcome.describe()
    assert compiled_probe.trace.events == walker_probe.trace.events


# ---------------------------------------------------------------------------
# Kind filtering
# ---------------------------------------------------------------------------

FILTER_PROGRAM = """
#include <stdio.h>
int add(int a, int b) { return a + b; }
int main(void) {
    int total = 0;
    for (int i = 0; i < 4; i++)
        total = add(total, i);
    printf("%d\\n", total);
    return 0;
}
"""


def test_selective_probe_sees_the_filtered_broadcast_stream():
    broadcast = KindRecorder()
    selective = KindRecorder(subscribes=("call", "return"))
    report, _ = run_probed(COMPILED, FILTER_PROGRAM, "filter.c",
                           broadcast, selective)
    assert report is not None
    wanted = {"call", "return"}
    assert selective.events, "program calls functions; call events expected"
    assert all(event["event"] in wanted for event in selective.events)
    assert selective.events == [event for event in broadcast.events
                                if event["event"] in wanted]
    assert selective.end == broadcast.end


def test_unsubscribed_kind_is_never_delivered():
    # The program never frees, and the probe only wants "free": it must
    # end the run having seen nothing at all — while a broadcast probe on
    # the very same run sees the full stream.
    broadcast = KindRecorder()
    selective = KindRecorder(subscribes=("free",))
    report, _ = run_probed(COMPILED, FILTER_PROGRAM, "filter.c",
                           broadcast, selective)
    assert report is not None
    assert selective.events == []
    assert selective.end is not None
    assert broadcast.events


def test_selective_subscription_runs_on_the_walker():
    for kinds in (("call", "return"), ("read", "write"), ("branch",)):
        compiled_probe = KindRecorder(subscribes=kinds)
        walker_probe = KindRecorder(subscribes=kinds)
        _, compiled = run_probed(COMPILED, FILTER_PROGRAM, "filter.c",
                                 compiled_probe)
        run_probed(WALKER, FILTER_PROGRAM, "filter.c", walker_probe)
        assert_ran_on_the_walker(compiled)
        assert compiled_probe.events == walker_probe.events


# ---------------------------------------------------------------------------
# Null subscription: the selected engine survives probing
# ---------------------------------------------------------------------------

def test_zero_subscription_probe_keeps_the_native_engine():
    probe = KindRecorder(subscribes=())
    assert not _probes_need_events([probe])
    assert _probes_need_events([KindRecorder()])
    assert _probes_need_events([KindRecorder(subscribes=("call",))])

    tool = KccTool(CheckerOptions(), run_static_checks=False)
    compiled = tool.compile_unit(FILTER_PROGRAM, filename="filter.c")
    assert compiled.ok
    unprobed = tool.run_unit(compiled)
    probed = tool.run_unit(compiled, probes=[probe])

    # The probe saw nothing but was told how the run ended.
    assert probe.events == []
    assert probe.end is not None
    assert probed.outcome.describe() == unprobed.outcome.describe()
    assert probed.outcome.stdout == unprobed.outcome.stdout

    # And the engine really stayed native: the run built the bytecode of
    # these options, as the unprobed run did, and no closure IR (functions
    # that fall back run on the walker); a subscribing probe builds neither.
    assert list(compiled._bytecode) == [tool.options]
    assert compiled._lowered == {}


# ---------------------------------------------------------------------------
# Arena store: observational byte-equality with the dict store
# ---------------------------------------------------------------------------

concrete_bytes = st.builds(ConcreteByte, st.integers(0, 255))
any_bytes = st.one_of(concrete_bytes,
                      st.builds(UnknownByte, st.integers(1, 4)))


@settings(max_examples=120, deadline=None)
@given(initial=st.lists(any_bytes, min_size=1, max_size=16), data=st.data())
def test_arena_bytes_is_byte_equal_to_the_list_store(initial, data):
    # A shared arena with pre-existing content: the view must stay inside
    # its own window regardless of the operation mix.
    arena = bytearray(b"\xaa\xbb\xcc")
    guard = bytes(arena)
    view = ArenaBytes(arena, list(initial))
    model = list(initial)
    size = len(model)

    for _ in range(data.draw(st.integers(0, 12), label="op-count")):
        op = data.draw(st.sampled_from(
            ["set", "set-slice", "write-int", "read-int", "read-slice"]),
            label="op")
        if op == "set":
            index = data.draw(st.integers(0, size - 1), label="index")
            byte = data.draw(any_bytes, label="byte")
            view[index] = byte
            model[index] = byte
        elif op == "set-slice":
            start = data.draw(st.integers(0, size), label="start")
            stop = data.draw(st.integers(start, size), label="stop")
            payload = data.draw(st.lists(any_bytes, min_size=stop - start,
                                         max_size=stop - start),
                                label="payload")
            view[start:stop] = payload
            model[start:stop] = payload
        elif op == "write-int":
            width = data.draw(st.integers(1, min(size, 8)), label="width")
            offset = data.draw(st.integers(0, size - width), label="offset")
            value = data.draw(st.integers(0, (1 << (8 * width)) - 1),
                              label="value")
            view.write_int(offset, width, value)
            payload = value.to_bytes(width, "little")
            model[offset:offset + width] = [ConcreteByte(b) for b in payload]
        elif op == "read-int":
            width = data.draw(st.integers(1, min(size, 8)), label="width")
            offset = data.draw(st.integers(0, size - width), label="offset")
            signed = data.draw(st.booleans(), label="signed")
            window = model[offset:offset + width]
            if all(type(byte) is ConcreteByte for byte in window):
                expected = int.from_bytes(
                    bytes(byte.value for byte in window), "little",
                    signed=signed)
            else:
                expected = None
            assert view.read_int(offset, width, signed) == expected
        else:
            start = data.draw(st.integers(0, size), label="start")
            stop = data.draw(st.integers(start, size), label="stop")
            assert view[start:stop] == model[start:stop]

    assert len(view) == size
    assert list(view) == model
    assert view == model
    assert all(view[index] == model[index] for index in range(size))
    assert bytes(arena[:3]) == guard


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_arena_memory_agrees_with_dict_memory(data):
    options = CheckerOptions()
    arena_memory = Memory(options, store="arena")
    dict_memory = Memory(options, store="dict")

    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=6),
                      label="sizes")
    pairs = []
    for size in sizes:
        initial = data.draw(st.lists(any_bytes, min_size=size, max_size=size),
                            label="initial")
        kind = data.draw(st.sampled_from((StorageKind.AUTO, StorageKind.HEAP)),
                         label="kind")
        arena_obj = arena_memory.allocate(size, kind, name="o",
                                          data=list(initial))
        dict_obj = dict_memory.allocate(size, kind, name="o",
                                        data=list(initial))
        assert arena_obj.base == dict_obj.base
        pairs.append((arena_obj, dict_obj, size))

    for _ in range(data.draw(st.integers(0, 30), label="op-count")):
        arena_obj, dict_obj, size = data.draw(st.sampled_from(pairs),
                                              label="object")
        op = data.draw(st.sampled_from(["write", "read", "kill"]), label="op")
        if op == "write":
            index = data.draw(st.integers(0, size - 1), label="index")
            byte = data.draw(any_bytes, label="byte")
            arena_obj.data[index] = byte
            dict_obj.data[index] = byte
        elif op == "read":
            index = data.draw(st.integers(0, size - 1), label="index")
            assert arena_obj.data[index] == dict_obj.data[index]
        else:
            arena_memory.kill(arena_obj.base)
            dict_memory.kill(dict_obj.base)

    for arena_obj, dict_obj, _ in pairs:
        assert arena_obj.alive == dict_obj.alive
        assert list(arena_obj.data) == list(dict_obj.data)
        pointer = PointerValue(base=arena_obj.base, offset=0,
                               type=ct.PointerType(pointee=ct.CHAR))
        if arena_obj.alive:
            assert (arena_memory.read_bytes(pointer, arena_obj.size)
                    == dict_memory.read_bytes(pointer, dict_obj.size))
