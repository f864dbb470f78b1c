"""Reproduction of "Deploying Intrusion-Tolerant SCADA for the Power
Grid" (DSN 2019): Spire, Prime, Spines, MANA, the commercial baseline,
and the red-team harness, on a deterministic discrete-event simulator.

Start with :mod:`repro.api`: ``build_world(GridSpec.single_plant())``
stands up the paper's plant, ``build_redteam_testbed(sim)`` the Fig. 3
experiment.
"""

__version__ = "1.0.0"
