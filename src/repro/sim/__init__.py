"""The discrete-event kernel: ``repro.sim.simulator`` (clock, event
heap, timers) and ``repro.sim.process`` (named components with scoped
logging, RNG streams and timers).

Import from the submodules, or from :mod:`repro.api` — the public
entry point.  This package re-exports nothing.
"""
