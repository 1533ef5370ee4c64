"""Per-layer probes for the traced benchmark run.

The program keeps work counters of its own (``tcad.poisson1d.solves``,
``spice.newton.iterations`` ...) that its ``observe=`` tracer collects.
What it does not record is how long each layer spent, so this module
wraps the public functions at every layer boundary and times the calls
into them.  Nothing under ``src/`` is changed: the wrappers replace
module or class attributes for the duration of one traced section and
put the originals back afterwards.

Each probe counts and times only the outermost call of its metric, so
a function that recurses (``drain_current`` for negative ``vds``) or a
group of builders that call each other (the task-graph builders) is
counted once per call into the layer.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

# Program counters the tracer keeps, read out under their own names.
TRACER_COUNTERS = (
    "engine.tasks",
    "tcad.poisson1d.solves",
    "tcad.poisson1d.iterations",
    "extraction.optimizer.evaluations",
    "spice.transient.timesteps",
    "spice.transient.rejected_steps",
    "spice.newton.solves",
    "spice.newton.iterations",
    "spice.newton.rescues",
    "spice.mna.solves",
)

# Deterministic work counts stored per workload in ledger.json.
LEDGER_COUNTERS = (
    "tcad.poisson1d.solves",
    "tcad.poisson1d.iterations",
    "extraction.optimizer.evaluations",
    "spice.newton.iterations",
    "spice.transient.timesteps",
    "spice.mna.solves",
    "engine.fingerprint.calls",
)

# Per layer: the call counts that read zero when a workload bypasses it.
LAYER_WORK = {
    "engine.compute": ("engine.compute.calls", "engine.cache.put.calls"),
    "tcad": ("tcad.characterize.calls", "tcad.drain_current.calls",
             "tcad.poisson1d.solves"),
    "extraction": ("extraction.fit.calls", "extraction.residual.calls",
                   "extraction.optimizer.evaluations"),
    "compact": ("compact.ids_magnitude.calls", "compact.stamp.calls"),
    "compact.stamp": ("compact.stamp.calls",),
    "spice": ("spice.transient.calls", "spice.newton.solves",
              "spice.mna.solves", "spice.mna.solve.calls"),
    "ppa": ("ppa.simulate_cell.calls", "ppa.measure.calls",
            "cells.build_circuit.calls"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class LayerProbes:
    """Call counts and inclusive times at the program's layer boundaries.

    Use as a context manager: entering installs the wrappers, leaving
    restores the original attributes.
    """

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.amount: Dict[str, float] = defaultdict(float)
        self._depth: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def timed(self, fn: Callable, metric: str,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to count and time its outermost calls.

        ``after(args, result)`` runs outside the timed interval and
        returns the value handed back to the caller.
        """
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[metric]:
                return fn(*args, **kwargs)
            depth[metric] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[metric] += time.perf_counter() - start
                self.calls[metric] += 1
                depth[metric] -= 1
            return after(args, result) if after is not None else result

        return wrapper

    def wrap(self, owner: Any, attr: str, metric: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by its timed wrapper until exit."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.timed(original, metric, after))

    def __enter__(self) -> "LayerProbes":
        from repro.compact.model import BsimSoi4Lite
        from repro.engine import executor, pipeline
        from repro.engine.backends import serial
        from repro.engine.cache import ArtifactCache
        from repro.extraction import flow as extraction_flow
        from repro.extraction import targets
        from repro.extraction.stages import ExtractionStage
        from repro.flows import full_flow
        from repro.ppa import delay, power, runner
        from repro.spice.elements.mosfet import Mosfet
        from repro.spice.mna import MnaAssembler
        from repro.tcad.charge_sheet import ChargeSheetModel
        from repro.tcad.poisson1d import Poisson1D

        # engine: graph build, fingerprint, scheduler, ArtifactCache
        for owner, attr in ((full_flow, "build_flow_graph"),
                            (full_flow, "extraction_tasks"),
                            (full_flow, "merge_tasks"),
                            (pipeline, "cell_ppa_tasks"),
                            (pipeline, "merge_tasks")):
            self.wrap(owner, attr, "engine.graph_build")
        self.wrap(pipeline, "fingerprint", "engine.fingerprint")
        self.wrap(executor, "fingerprint", "engine.fingerprint")
        self.wrap(executor.Engine, "run", "engine.run")
        self.wrap(serial, "run_stage_inline", "engine.compute")
        self.wrap(ArtifactCache, "get", "engine.cache.get",
                  after=self._after_cache_get)
        self.wrap(ArtifactCache, "put", "engine.cache.put",
                  after=self._after_cache_put)
        # tcad
        self.wrap(targets, "characterize_device", "tcad.characterize")
        self.wrap(ChargeSheetModel, "drain_current", "tcad.drain_current")
        self.wrap(Poisson1D, "solve", "tcad.poisson1d.solve")
        # extraction
        self.wrap(extraction_flow, "fit_parameters", "extraction.fit")
        self.wrap(ExtractionStage, "residual_fn", "extraction.residual_fn",
                  after=lambda args, fn: self.timed(
                      fn, "extraction.residual"))
        # compact
        self.wrap(BsimSoi4Lite, "ids_magnitude", "compact.ids_magnitude",
                  after=self._after_ids_magnitude)
        self.wrap(Mosfet, "stamp_static", "compact.stamp")
        self.wrap(Mosfet, "stamp_dynamic", "compact.stamp")
        # spice
        self.wrap(runner, "transient", "spice.transient")
        self.wrap(MnaAssembler, "assemble_static", "spice.mna.assemble")
        self.wrap(MnaAssembler, "assemble_dynamic", "spice.mna.assemble")
        self.wrap(MnaAssembler, "solve_system", "spice.mna.solve")
        # ppa / cells
        self.wrap(runner, "simulate_cell", "ppa.simulate_cell")
        self.wrap(delay, "measure_cell_delay", "ppa.measure")
        self.wrap(power, "measure_cell_power", "ppa.measure")
        self.wrap(runner, "build_cell_circuit", "cells.build_circuit")
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # result hooks (run outside the timed interval)
    # ------------------------------------------------------------------
    def _entry_size(self, cache, stage, key) -> int:
        """Size of the key's disk entry (0 without a disk tier)."""
        if cache.cache_dir is None:
            return 0
        try:
            return os.path.getsize(cache._path(stage.name, key))
        except OSError:
            return 0

    def _after_cache_get(self, args, result):
        cache, key, stage = args
        if result[1] is not None:
            self.amount["engine.cache.hits"] += 1
        if result[1] == "disk":
            self.amount["engine.cache.bytes_read"] += self._entry_size(
                cache, stage, key)
        return result

    def _after_cache_put(self, args, result):
        cache, key, stage = args[:3]
        self.amount["engine.cache.bytes_written"] += self._entry_size(
            cache, stage, key)
        return result

    def _after_ids_magnitude(self, args, result):
        self.amount["compact.points"] += np.size(result)
        return result

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self, counters: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics from the probes plus the tracer counters."""
        c, s, a = self.calls, self.seconds, self.amount
        ctr = {name: int(counters.get(name, 0)) for name in TRACER_COUNTERS}
        out = {
            "engine.graph_build_s": s["engine.graph_build"],
            "engine.fingerprint.calls": c["engine.fingerprint"],
            "engine.fingerprint_per_task": _ratio(c["engine.fingerprint"],
                                                  ctr["engine.tasks"]),
            "engine.cache.get.calls": c["engine.cache.get"],
            "engine.cache.get_s": s["engine.cache.get"],
            "engine.cache.put.calls": c["engine.cache.put"],
            "engine.cache.put_s": s["engine.cache.put"],
            "engine.cache.hit_ratio": _ratio(a["engine.cache.hits"],
                                             c["engine.cache.get"]),
            "engine.cache.bytes_read": int(a["engine.cache.bytes_read"]),
            "engine.cache.bytes_written": int(
                a["engine.cache.bytes_written"]),
            "engine.run_s": s["engine.run"],
            "engine.run.self_s": s["engine.run"] - s["engine.compute"],
            "engine.compute.calls": c["engine.compute"],
            "tcad.characterize.calls": c["tcad.characterize"],
            "tcad.characterize_s": s["tcad.characterize"],
            "tcad.drain_current.calls": c["tcad.drain_current"],
            "tcad.drain_current_s": s["tcad.drain_current"],
            "tcad.poisson1d.solves": ctr["tcad.poisson1d.solves"],
            "tcad.poisson1d.iterations": ctr["tcad.poisson1d.iterations"],
            "tcad.poisson1d.solve_s": s["tcad.poisson1d.solve"],
            "tcad.solves_per_current": _ratio(ctr["tcad.poisson1d.solves"],
                                              c["tcad.drain_current"]),
            "extraction.fit.calls": c["extraction.fit"],
            "extraction.fit_s": s["extraction.fit"],
            "extraction.residual.calls": c["extraction.residual"],
            "extraction.residual_s": s["extraction.residual"],
            "extraction.optimizer_self_s": (s["extraction.fit"]
                                            - s["extraction.residual"]),
            "extraction.residuals_per_fit": _ratio(c["extraction.residual"],
                                                   c["extraction.fit"]),
            "extraction.optimizer.evaluations":
                ctr["extraction.optimizer.evaluations"],
            "compact.ids_magnitude.calls": c["compact.ids_magnitude"],
            "compact.ids_magnitude_s": s["compact.ids_magnitude"],
            "compact.points_per_call": _ratio(a["compact.points"],
                                              c["compact.ids_magnitude"]),
            "compact.stamp.calls": c["compact.stamp"],
            "compact.stamp_s": s["compact.stamp"],
            "spice.transient.calls": c["spice.transient"],
            "spice.transient_s": s["spice.transient"],
            "spice.transient.timesteps": ctr["spice.transient.timesteps"],
            "spice.transient.rejected_steps":
                ctr["spice.transient.rejected_steps"],
            "spice.newton.solves": ctr["spice.newton.solves"],
            "spice.newton.iterations": ctr["spice.newton.iterations"],
            "spice.newton.rescues": ctr["spice.newton.rescues"],
            "spice.mna.assemble_s": s["spice.mna.assemble"],
            "spice.mna.solve.calls": c["spice.mna.solve"],
            "spice.mna.solve_s": s["spice.mna.solve"],
            "spice.mna.solves": ctr["spice.mna.solves"],
            "ppa.simulate_cell.calls": c["ppa.simulate_cell"],
            "ppa.simulate_cell_s": s["ppa.simulate_cell"],
            "ppa.measure.calls": c["ppa.measure"],
            "ppa.measure_s": s["ppa.measure"],
            "cells.build_circuit.calls": c["cells.build_circuit"],
            "cells.build_circuit_s": s["cells.build_circuit"],
        }
        return out
