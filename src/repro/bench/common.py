"""The testbed parts under their old name; they live in
:mod:`repro.spec.testbed`, and only ``perfbench/`` still reads them here."""

from repro.spec.testbed import make_testbed, populate_volume, warm_cache

__all__ = ["make_testbed", "populate_volume", "warm_cache"]
