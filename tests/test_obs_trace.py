"""Unit tests for span tracing and packet-lifecycle traces."""

from repro.obs import NULL_TRACER, Span, Tracer


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakePacket:
    def __init__(self, packet_id=1, size=100):
        self.packet_id = packet_id
        self.size = size
        self.flow_label = "1.2.3.4:10->5.6.7.8:20/udp"


def test_events_are_stamped_with_sim_time():
    sim = FakeSim()
    tracer = Tracer(sim)
    tracer.emit("custom", detail="x")
    sim.now = 4.5
    tracer.emit("custom", detail="y")
    assert [e["t"] for e in tracer.events] == [0.0, 4.5]
    assert tracer.events[1]["detail"] == "y"


def test_unbound_tracer_stamps_zero():
    tracer = Tracer()
    tracer.emit("e")
    assert tracer.events[0]["t"] == 0.0


def test_span_records_wall_and_sim_durations():
    sim = FakeSim()
    tracer = Tracer(sim)
    with tracer.span("region", tag="a"):
        sim.now = 2.0
    (event,) = tracer.events
    assert event["kind"] == "span"
    assert event["name"] == "region"
    assert event["tag"] == "a"
    assert event["sim_s"] == 2.0
    assert event["wall_s"] >= 0.0


def test_packet_hop_records_identity_and_flow():
    tracer = Tracer(FakeSim())
    packet = FakePacket(packet_id=42, size=256)
    tracer.packet_hop("enqueue", packet, "u1->ap", backlog=3)
    (event,) = tracer.events
    assert event["kind"] == "hop"
    assert event["hop"] == "enqueue"
    assert event["packet"] == 42
    assert event["where"] == "u1->ap"
    assert event["flow"] == packet.flow_label
    assert event["size"] == 256
    assert event["backlog"] == 3


def test_packet_trace_reassembles_one_packet():
    tracer = Tracer(FakeSim())
    first, second = FakePacket(1), FakePacket(2)
    tracer.packet_hop("enqueue", first, "l1")
    tracer.packet_hop("enqueue", second, "l1")
    tracer.packet_hop("deliver", first, "l1")
    journey = tracer.packet_trace(1)
    assert [hop["hop"] for hop in journey] == ["enqueue", "deliver"]


def test_buffer_cap_counts_drops():
    tracer = Tracer(max_events=3)
    for index in range(10):
        tracer.emit("e", i=index)
    assert len(tracer.events) == 3
    assert tracer.dropped == 7
    assert tracer.dump()["dropped"] == 7
    assert tracer.dump()["max_events"] == 3


def test_buffer_cap_breaks_drops_down_by_kind():
    tracer = Tracer(max_events=2)
    tracer.emit("span")
    tracer.emit("hop")
    for _ in range(4):
        tracer.emit("hop")
    tracer.emit("span")
    assert tracer.dropped == 5
    assert tracer.dropped_by_kind == {"hop": 4, "span": 1}
    dump = tracer.dump()
    assert dump["dropped_by_kind"] == {"hop": 4, "span": 1}
    # Sorted by kind, so dumps are byte-stable across emission orders.
    assert list(dump["dropped_by_kind"]) == ["hop", "span"]


class UnreadableSim:
    """A clock that must not be read."""

    @property
    def now(self):
        raise AssertionError("a dropped record read the clock")


class UnlabelledPacket:
    """A packet whose flow label must not be formatted."""

    packet_id = 7
    size = 100

    @property
    def flow_label(self):
        raise AssertionError("a dropped hop formatted its flow label")


def test_full_tracer_counts_records_without_building_them():
    tracer = Tracer(UnreadableSim(), max_events=0)
    assert tracer.full()
    tracer.packet_hop("enqueue", UnlabelledPacket(), "l1", backlog=0)
    assert tracer.dropped_by_kind == {"hop": 1}
    span = tracer.span("region", tag="a")
    assert not isinstance(span, Span)
    assert tracer.dropped_by_kind == {"hop": 1, "span": 1}
    with span:
        pass
    tracer.emit("custom")
    assert tracer.events == []
    assert tracer.dropped == 3
    assert tracer.dropped_by_kind == {"custom": 1, "hop": 1, "span": 1}


def test_span_opened_with_room_is_dropped_if_the_buffer_fills():
    tracer = Tracer(FakeSim(), max_events=1)
    with tracer.span("region"):
        tracer.emit("inner")
    assert [event["kind"] for event in tracer.events] == ["inner"]
    assert tracer.dropped_by_kind == {"span": 1}


def test_select_filters_by_kind():
    tracer = Tracer()
    tracer.emit("a")
    tracer.emit("b")
    tracer.emit("a")
    assert len(tracer.select("a")) == 2


def test_span_profile_orders_by_wall_time():
    tracer = Tracer()
    tracer.events = [
        {"t": 0, "kind": "span", "name": "fast", "wall_s": 0.1, "sim_s": 1.0},
        {"t": 0, "kind": "span", "name": "slow", "wall_s": 0.5, "sim_s": 2.0},
        {"t": 0, "kind": "span", "name": "slow", "wall_s": 0.5, "sim_s": 2.0},
        {"t": 0, "kind": "hop", "hop": "enqueue"},
    ]
    profile = tracer.span_profile()
    assert [row["name"] for row in profile] == ["slow", "fast"]
    assert profile[0]["count"] == 2
    assert profile[0]["wall_s"] == 1.0


def test_span_profile_groups_dispatch_by_callback():
    tracer = Tracer()
    tracer.events = [
        {"t": 0, "kind": "span", "name": "kernel.dispatch",
         "callback": "Link._deliver", "wall_s": 0.2, "sim_s": 0.0},
        {"t": 0, "kind": "span", "name": "kernel.dispatch",
         "callback": "Process._step", "wall_s": 0.1, "sim_s": 0.0},
    ]
    names = [row["name"] for row in tracer.span_profile()]
    assert names == ["Link._deliver", "Process._step"]


def test_null_tracer_discards_everything():
    assert not NULL_TRACER.enabled
    NULL_TRACER.emit("e")
    NULL_TRACER.packet_hop("enqueue", FakePacket(), "l")
    with NULL_TRACER.span("region"):
        pass
    assert NULL_TRACER.events == []
    assert NULL_TRACER.dump() == {
        "events": [],
        "dropped": 0,
        "dropped_by_kind": {},
        "max_events": 0,
    }
