"""Coverage for small public surfaces: wire sizes, captures, screens,
OS profiles, LAN helpers, scenario reports, measurement jitter."""

import pytest

from repro.api import Simulator


# ---------------------------------------------------------------------------
# Message wire sizes (bandwidth accounting feeds links and MANA)
# ---------------------------------------------------------------------------
def test_prime_message_wire_sizes_positive():
    from repro.prime.messages import (
        AruExchange, ClientUpdate, CommitMsg, NewLeaderMsg, PoAckBatch,
        PoRequestBatch, PrePrepare, PrepareMsg, ReconcRequest, Reply,
        SignedPrimeMessage, StateRequest, UpdateRequest,
    )
    update = ClientUpdate(client_id="c", client_seq=1, op={"x": 1})
    messages = [
        update,
        PoRequestBatch(originator="r1#0", start_seq=1, updates=[update]),
        PoAckBatch(acker="r1", acks=[("r1#0", 1, b"d" * 32)],
                   po_aru={"r1#0": 1}),
        PrePrepare(view=0, gseq=1, matrix={"r1": {"r1#0": 1}}),
        PrepareMsg(view=0, gseq=1, digest=b"d", replica="r1"),
        CommitMsg(view=0, gseq=1, digest=b"d", replica="r1"),
        NewLeaderMsg(new_view=1, replica="r1", last_executed=0, prepared={}),
        ReconcRequest(replica="r1", from_gseq=1, to_gseq=5),
        UpdateRequest(replica="r1", slots=[("r1#0", 1)]),
        AruExchange(replica="r1", last_executed=3, view=1),
        StateRequest(replica="r1", nonce=1),
        Reply(replica="r1", client_id="c", client_seq=1, result={"ok": 1}),
        SignedPrimeMessage(sender="r1", body=update),
    ]
    for message in messages:
        assert message.wire_size() > 0


def test_overlay_message_sizes_scale_with_payload():
    from repro.spines.messages import LinkEnvelope, OverlayMessage
    small = OverlayMessage(src=("a", 1), dst=("b", 2), service="reliable",
                           payload="x", seq=1, src_daemon="a")
    big = OverlayMessage(src=("a", 1), dst=("b", 2), service="reliable",
                         payload="x" * 1000, seq=2, src_daemon="a")
    assert big.wire_size() > small.wire_size()
    envelope = LinkEnvelope(sender="a", kind="data", body=big)
    assert envelope.wire_size() > big.wire_size() - 1


# ---------------------------------------------------------------------------
# Capture helpers
# ---------------------------------------------------------------------------
def test_capture_between_and_subscribe():
    from repro.net.tap import Capture, PacketRecord
    capture = Capture("net")
    streamed = []
    capture.subscribe(streamed.append)
    for t in (1.0, 2.0, 3.0):
        capture._ingest(PacketRecord(
            time=t, network="net", ethertype="ipv4", src_mac="m",
            dst_mac="m2", size=100))
    assert len(capture) == 3
    assert len(capture.between(1.5, 3.0)) == 1
    assert len(streamed) == 3


# ---------------------------------------------------------------------------
# OS profiles
# ---------------------------------------------------------------------------
def test_osprofile_with_extra_service():
    from repro.net import centos_minimal_latest
    base = centos_minimal_latest()
    extended = base.with_extra_service(8443, "mgmt")
    assert 8443 in extended.os_service_ports
    assert 8443 not in base.os_service_ports   # immutable original
    assert extended.hardened


# ---------------------------------------------------------------------------
# LAN helpers
# ---------------------------------------------------------------------------
def test_lan_lookup_errors_and_unharden():
    from repro.net import Host, Lan
    sim = Simulator(seed=300)
    lan = Lan(sim, "lan", "10.0.0.0/24")
    inside = Host(sim, "inside")
    outside = Host(sim, "outside")
    lan.connect(inside)
    with pytest.raises(KeyError):
        lan.link_of(outside)
    with pytest.raises(KeyError):
        lan.ip_of(outside)
    lan.harden()
    assert lan.switch.static_mode
    lan.unharden()
    assert not lan.switch.static_mode
    assert not lan.interface_of(inside).arp.static_mode


def test_switch_out_of_ports():
    from repro.net import Host, Lan
    sim = Simulator(seed=301)
    lan = Lan(sim, "lan", "10.0.0.0/24", ports=2)
    lan.connect(Host(sim, "a"))
    lan.connect(Host(sim, "b"))
    with pytest.raises(RuntimeError):
        lan.connect(Host(sim, "c"))


# ---------------------------------------------------------------------------
# Scenario report structure
# ---------------------------------------------------------------------------
def test_scenario_report_render_and_lookup():
    from repro.redteam.scenarios import ScenarioReport
    report = ScenarioReport("demo")
    report.add("thing one", True, "it worked", extra=1)
    report.add("thing two", False, "blocked")
    assert report.achieved("thing one") is True
    assert report.achieved("thing two") is False
    with pytest.raises(KeyError):
        report.achieved("missing")
    rendered = report.render()
    assert "ATTACKER SUCCEEDED" in rendered and "defended" in rendered
    assert report.stages[0].observations == {"extra": 1}


# ---------------------------------------------------------------------------
# Measurement device jitter
# ---------------------------------------------------------------------------
def test_measurement_flips_are_jittered():
    from repro.api import MeasurementDevice
    from repro.plc import plant_topology
    sim = Simulator(seed=302)
    topo = plant_topology()
    device = MeasurementDevice(sim, topo, "B57", sensors={}, period=2.0,
                               jitter=0.5)
    sim.run(until=20.0)
    times = [s.flip_time for s in device.samples]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(gaps) >= 5
    assert len({round(g, 6) for g in gaps}) > 1   # not phase-locked
    assert all(1.4 <= g <= 2.6 for g in gaps)


# ---------------------------------------------------------------------------
# HMI screen unicode mode
# ---------------------------------------------------------------------------
def test_hmi_screen_unicode_symbols():
    from repro.plc import plant_topology
    from repro.scada.visualization import HmiScreen
    screen = HmiScreen(plant_topology(), ascii_mode=False)
    output = screen.render()
    assert "▣" in output


# ---------------------------------------------------------------------------
# EventLog clock binding
# ---------------------------------------------------------------------------
def test_eventlog_bind_clock():
    from repro.util import EventLog
    log = EventLog()
    now = {"t": 0.0}
    log.bind_clock(lambda: now["t"])
    now["t"] = 7.5
    record = log.log("s", "c", "m")
    assert record.time == 7.5


# ---------------------------------------------------------------------------
# Subnet exhaustion and allocation
# ---------------------------------------------------------------------------
def test_subnet_allocation_and_containment():
    from repro.net import Subnet, SubnetExhausted
    subnet = Subnet("10.5.0.0/30")
    first = subnet.allocate()
    second = subnet.allocate()
    assert first != second
    assert subnet.contains(first)
    assert not subnet.contains("10.6.0.1")
    with pytest.raises(SubnetExhausted, match="10.5.0.0/30") as caught:
        subnet.allocate()   # /30 has exactly two host addresses
    assert caught.value.cidr == "10.5.0.0/30"
    # A generator or map() that over-fills a subnet must name it, not
    # end early or die as "generator raised StopIteration".
    with pytest.raises(SubnetExhausted):
        list(map(lambda _: subnet.allocate(), range(2)))


# ---------------------------------------------------------------------------
# One wiring kernel: the Fig. 2 deployment is written once
# ---------------------------------------------------------------------------
def test_deployment_pieces_are_constructed_in_one_module():
    """A replica, a locked-down host, a recovery target, a PLC cable and
    a proxy are each built in ``repro.core.wiring`` and nowhere else
    under ``src/repro`` — a fifth hand-wired world fails here."""
    import ast
    import re
    from pathlib import Path

    import repro

    watched = {"PrimeReplica", "locked_down_firewall", "RecoveryTarget",
               "wire_direct", "PlcProxy", "Dnp3PlcProxy"}
    root = Path(repro.__file__).parent
    callers = {name: set() for name in watched}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = (func.id if isinstance(func, ast.Name)
                      else func.attr if isinstance(func, ast.Attribute)
                      else None)
            if called in watched:
                callers[called].add(str(path.relative_to(root)))
    assert callers == {name: {"core/wiring.py"} for name in watched}

    # ...and one campaign cell builder over whatever world that wires.
    import repro.faults.campaign as campaign
    assert [name for name in vars(campaign)
            if re.fullmatch(r"_build_(.*_)?cell", name)] == ["_build_cell"]
