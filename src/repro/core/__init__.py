"""The Spire system itself: deployment configuration
(``repro.core.config``), the one wiring kernel every world is laid out
over (``repro.core.wiring``), the paper-site layout
(``repro.core.spire``), the Fig. 3 red-team testbed
(``repro.core.deployment``) and the E9 measurement device
(``repro.core.measurement``).

Import from the submodules, or from :mod:`repro.api` — the public
entry point.  This package re-exports nothing.
"""
