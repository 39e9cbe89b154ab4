"""Workload registry: name -> workload class (see ``base.Workload``)."""

from wl_bulk_fleet import BulkFleet
from wl_drift_store import DriftStore
from wl_online import Online
from wl_paper_loop import PaperLoop

REGISTRY = {cls.name: cls for cls in (PaperLoop, Online, BulkFleet, DriftStore)}
