"""Experiment drivers: one module per paper figure/table.

Each driver runs its workloads through :class:`repro.api.Session` and
registers its artifacts with :func:`repro.api.artifact`; the CLI serves
them from that registry.
"""
