"""The public surface of each ``repro`` package that the traced run hooks.

One :class:`Entry` per callable, written ``"module:function"`` or
``"module:Class.method"`` — always the module or class that *defines*
it (``trace.install`` rejects re-exports and inherited names, so a
rename in the program breaks the traced run loudly instead of quietly
dropping a layer).  The layer of an entry is the ``repro.<package>`` of
its module.

``callbacks`` names parameters that take a callable the program will
call back later; those are wrapped at the registration call so the
callback's time goes to the package that owns it.  ``span=False``
entries only wrap callbacks and record nothing themselves.

Hot one-line accessors (``Counter.inc``, ``Gauge.set``,
``PowerTopology.get_breaker``, ``ArpTable.lookup`` ...) are left out on
purpose: a span costs about a microsecond, more than they do, and the
overhead would land in their callers' self time.  Their time is booked
to the caller's layer; README.md says what that hides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Entry:
    target: str
    callbacks: Tuple[str, ...] = ()
    span: bool = True


TABLE = (
    # --- sim: the kernel.  ``schedule``/``post`` delegate to ``at``/
    # ``post_at`` and ``Process.call_later``/``call_every`` to
    # ``schedule``/``every``, so these four see every callback.
    Entry("repro.sim.simulator:Simulator.run"),
    Entry("repro.sim.simulator:Simulator.step"),
    Entry("repro.sim.simulator:Simulator.at", callbacks=("fn",)),
    Entry("repro.sim.simulator:Simulator.post_at", callbacks=("fn",)),
    Entry("repro.sim.simulator:Simulator.every", callbacks=("fn",),
          span=False),
    Entry("repro.sim.simulator:Simulator.event_digest"),
    # --- net
    Entry("repro.net.host:Host.udp_send"),
    Entry("repro.net.host:Host.udp_bind", callbacks=("handler",),
          span=False),
    Entry("repro.net.host:Host.tcp_listen", callbacks=("on_connect",),
          span=False),
    Entry("repro.net.host:Host.tcp_connect",
          callbacks=("on_established", "on_data", "on_failure")),
    Entry("repro.net.host:Host.tcp_probe", callbacks=("callback",)),
    Entry("repro.net.host:Host.set_sniffer", callbacks=("fn",), span=False),
    Entry("repro.net.host:TcpConnection.send"),
    Entry("repro.net.host:TcpConnection.close"),
    Entry("repro.net.host:Interface.send_frame"),
    Entry("repro.net.link:Link.transmit"),
    Entry("repro.net.link:Link.add_tap", callbacks=("tap",), span=False),
    Entry("repro.net.switch:Switch.add_span_tap", callbacks=("tap",),
          span=False),
    Entry("repro.net.tap:Capture.subscribe", callbacks=("listener",),
          span=False),
    Entry("repro.net.tap:Capture.between"),
    Entry("repro.net.lan:Lan.connect"),
    Entry("repro.net.lan:Lan.harden"),
    Entry("repro.net.addresses:Subnet.contains"),
    Entry("repro.net.addresses:same_subnet"),
    # --- crypto
    Entry("repro.crypto.auth:sign_payload"),
    Entry("repro.crypto.auth:verify_signature"),
    Entry("repro.crypto.auth:mac_payload"),
    Entry("repro.crypto.auth:verify_mac"),
    Entry("repro.crypto.auth:digest"),
    Entry("repro.crypto.serialize:canonical_bytes"),
    Entry("repro.crypto.serialize:canonical_cached"),
    Entry("repro.crypto.serialize:payload_bytes"),
    Entry("repro.crypto.serialize:payload_digest"),
    Entry("repro.crypto.serialize:FrozenViewMixin.view_bytes"),
    Entry("repro.crypto.serialize:FrozenViewMixin.view_digest"),
    Entry("repro.crypto.seal:seal"),
    Entry("repro.crypto.seal:SealedPayload.open"),
    Entry("repro.crypto.threshold:ThresholdShare.sign_partial"),
    Entry("repro.crypto.threshold:ThresholdScheme.combine"),
    Entry("repro.crypto.threshold:ThresholdScheme.verify"),
    Entry("repro.crypto.keys:KeyStore.create_signing"),
    Entry("repro.crypto.keys:KeyStore.create_symmetric"),
    # --- spines
    Entry("repro.spines.daemon:SpinesDaemon.originate"),
    Entry("repro.spines.daemon:SpinesDaemon.create_session",
          callbacks=("handler",), span=False),
    Entry("repro.spines.daemon:SpinesDaemon.stop_daemon"),
    Entry("repro.spines.daemon:SpinesDaemon.start_daemon"),
    Entry("repro.spines.overlay:SpinesNetwork.add_daemon"),
    Entry("repro.spines.overlay:SpinesNetwork.add_edge"),
    Entry("repro.spines.overlay:SpinesNetwork.remove_edge"),
    Entry("repro.spines.overlay:SpinesNetwork.recompute_routes"),
    # --- prime
    Entry("repro.prime.client:PrimeClient.submit"),
    Entry("repro.prime.replica:PrimeReplica.submit_update"),
    Entry("repro.prime.replica:PrimeReplica.crash"),
    Entry("repro.prime.replica:PrimeReplica.recover"),
    # --- scada
    Entry("repro.scada.master:ScadaMaster.execute_update"),
    Entry("repro.scada.master:ScadaMaster.snapshot"),
    Entry("repro.scada.master:ScadaMaster.restore"),
    Entry("repro.scada.hmi:Hmi.command_breaker"),
    Entry("repro.scada.hmi:Hmi.subscribe"),
    Entry("repro.scada.proxy:PlcProxy.register_with_masters"),
    Entry("repro.scada.dnp3_proxy:Dnp3PlcProxy.register_with_masters"),
    # --- plc
    Entry("repro.plc.device:PlcDevice.handle_request"),
    Entry("repro.plc.dnp3:Dnp3Outstation.handle_request"),
    Entry("repro.plc.topology:PowerTopology.set_breaker"),
    # --- grid
    Entry("repro.grid.world:build_world"),
    Entry("repro.grid.world:GridWorld.start_workload"),
    # --- core / redteam (the E9 device and the commercial baseline)
    Entry("repro.core.spire:build_spire"),
    Entry("repro.redteam.commercial:CommercialHmi.command_breaker"),
    # --- faults
    Entry("repro.faults.campaign:run_campaign"),
    Entry("repro.faults.campaign:run_scenario"),
    Entry("repro.faults.campaign:run_grid_scenario"),
    Entry("repro.faults.campaign:report_digest"),
    Entry("repro.faults.plan:FaultPlan.arm"),
    Entry("repro.faults.monitors:MonitorSuite.start"),
    Entry("repro.faults.monitors:MonitorSuite.stop"),
    Entry("repro.faults.monitors:MonitorSuite.report"),
    Entry("repro.faults.harness:ChaosHarness.__init__"),
    Entry("repro.faults.harness:ChaosHarness.start_workload"),
    # --- mana
    Entry("repro.mana.detector:ManaInstance.train"),
    Entry("repro.mana.detector:ManaInstance.evaluate_window"),
    Entry("repro.mana.detector:ManaInstance.evaluate_range"),
    Entry("repro.mana.detector:ManaInstance.start_live"),
    # --- snapshot
    Entry("repro.snapshot.core:save_world_bytes"),
    Entry("repro.snapshot.core:restore_world_bytes"),
    Entry("repro.snapshot.core:save_world"),
    Entry("repro.snapshot.core:restore_world"),
    Entry("repro.snapshot.warmcache:WarmCache.put"),
    Entry("repro.snapshot.warmcache:WarmCache.restore"),
    # --- telemetry
    Entry("repro.telemetry.metrics:Histogram.observe"),
    Entry("repro.telemetry.metrics:MetricsRegistry.counter"),
    Entry("repro.telemetry.metrics:MetricsRegistry.gauge"),
    Entry("repro.telemetry.metrics:MetricsRegistry.histogram"),
    Entry("repro.telemetry.metrics:MetricsRegistry.sync_counter"),
    Entry("repro.telemetry.metrics:MetricsRegistry.merged_histogram"),
    Entry("repro.telemetry.trace:Tracer.start_span"),
    Entry("repro.telemetry.trace:Tracer.record"),
    Entry("repro.telemetry.trace:Span.finish"),
    # --- obs
    Entry("repro.obs.report:build_deployment_report"),
    Entry("repro.obs.report:render_report"),
    Entry("repro.obs.scorecard:build_detection_section"),
    Entry("repro.obs.recorder:FlightRecorder.record"),
    Entry("repro.obs.recorder:FlightRecorder.dump"),
    # --- parallel
    Entry("repro.parallel.pool:WorkerPool.run"),
)

#: Callbacks registered through these entries are kernel events: one
#: call of such a callback is one ``sim.events_executed``.
EVENT_VIAS = ("at", "post_at")
