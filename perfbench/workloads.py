"""The benchmark's three workloads, run through the public API.

Every workload has an untimed ``setup`` and a fixed-size timed
``section``; the runner repeats sections until the requested seconds
have passed.  All work runs on the ``serial`` backend in this process,
against cache directories created fresh under the benchmark's own work
directory, so no artefact of an earlier run or commit is ever replayed
into a cold measurement.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro import DEFAULT_PROCESS, DeviceVariant, Engine, Parasitics, \
    PpaRunner, run_extractions, run_full_flow
from repro.engine.pipeline import merge_tasks, model_set_tasks
from repro.verify.goldens import GoldenStore
from repro.verify.snapshots import extraction_snapshot, ppa_snapshot

#: Seed whose inputs are the paper's nominal ones (checked vs goldens).
GOLDEN_SEED = 0

#: Relative process sigma and truncation of the seeded process draw.
#: The rule is the one of ``repro.analysis.variation.monte_carlo_drive``
#: (Gaussian scale on t_si, t_ox, l_gate, truncated at 3 sigma) with a
#: tenth of its 2% sigma: at 2% the optimizer's evaluation count varies
#: 2x between seeds and the worst fit error by 13%, more than any bound
#: the benchmark could hold across seeds (see README.md).
PROCESS_SIGMA = 0.002
PROCESS_TRUNCATION = 3.0

#: Range of the seeded parasitic scale factors on ``cells-ppa``.
PARASITIC_SCALE = (0.8, 1.2)

CELLS_PPA_CELLS = ["INV1X1", "NAND2X1", "AND2X1"]
REPLAY_CELLS = ["INV1X1"]

#: Replays per timed section on ``warm-replay``, and untimed warm-up
#: replays before the first one.
REPLAY_BATCH = 100
REPLAY_WARMUP = 50


class CheckFailed(Exception):
    """An output check failed; the run is not a valid measurement."""


@dataclass
class Section:
    """One timed section: times, unit-operation latencies, outputs."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    op_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    artefacts: str = ""


def canonical(value: Any) -> str:
    """Bit-exact text form of artefact dicts (floats by repr)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def process_sample(seed: int):
    """Seed 0: the Table I process; other seeds: one seeded draw."""
    if seed == GOLDEN_SEED:
        return None
    rng = np.random.default_rng(seed)
    limit = PROCESS_TRUNCATION * PROCESS_SIGMA
    scales = 1.0 + np.clip(rng.normal(0.0, PROCESS_SIGMA, size=3),
                           -limit, limit)
    base = DEFAULT_PROCESS
    return base.with_updates(t_si=base.t_si * float(scales[0]),
                             t_ox=base.t_ox * float(scales[1]),
                             l_gate=base.l_gate * float(scales[2]))


def parasitics_sample(seed: int) -> Parasitics:
    """Seed 0: the paper's parasitics; others: seeded scale factors."""
    default = Parasitics()
    if seed == GOLDEN_SEED:
        return default
    low, high = PARASITIC_SCALE
    f = np.random.default_rng(seed).uniform(low, high, size=4)
    return Parasitics(r_miv=default.r_miv * float(f[0]),
                      r_interconnect=default.r_interconnect * float(f[1]),
                      r_rail=default.r_rail * float(f[2]),
                      c_load=default.c_load * float(f[3]))


def golden_check(name: str, measured: Dict[str, Any]) -> None:
    """Read-only diff against a committed golden in its own class."""
    diff = GoldenStore().diff(name, measured)
    if not diff.passed:
        raise CheckFailed(diff.render())


def check_ppa(results) -> None:
    for item in results:
        for quantity in ("delay", "power", "area"):
            value = getattr(item, quantity)
            if not (np.isfinite(value) and value > 0):
                raise CheckFailed(f"{item.cell_name} {item.variant.value} "
                                  f"{quantity} = {value!r}")


def count_tasks(section: Section, engine: Engine) -> None:
    """Add the engine's last run to the attempted/failed task counts."""
    manifest = engine.last_manifest
    section.attempted += len(manifest.records) + len(manifest.failures)
    section.failed += len(manifest.failures)


def expect_work(engine: Engine, computed_stages: Dict[str, int]) -> None:
    """The run computed exactly these stages; everything else was a hit."""
    computed: Dict[str, int] = {}
    for record in engine.last_manifest.records:
        if not record.cache_hit:
            computed[record.stage] = computed.get(record.stage, 0) + 1
    if computed != computed_stages:
        raise CheckFailed(f"computed {computed}, expected {computed_stages}")


class Workload:
    """Base: fresh cache directories under the benchmark work dir."""

    name = ""
    #: Layers whose top-level time accounts for the timed section.
    attributed: tuple = ()
    #: Layers (keys of probes.LAYER_WORK) the timed section bypasses.
    bypassed: tuple = ()

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.fit_error_max_pct = float("nan")

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                     dir=self.work_dir))

    def engine(self, cache_dir: Path) -> Engine:
        return Engine(backend="serial", cache_dir=cache_dir,
                      on_error="continue")

    def setup(self) -> None:
        """Untimed prerequisites of the timed sections."""

    def section(self, observe=None) -> Section:
        raise NotImplementedError

    def check_golden(self) -> None:
        """Seed-0 comparison with the committed goldens."""


class DevicesCold(Workload):
    """TCAD sweeps + staged extraction of all 8 devices, cold cache."""

    name = "devices-cold"
    attributed = ("tcad.characterize_s", "extraction.fit_s")
    bypassed = ("spice", "ppa", "compact.stamp")
    #: Engine of the first seed-0 section, kept for the golden check.
    golden_engine: Optional[Engine] = None

    def section(self, observe=None) -> Section:
        cache_dir = self.fresh_dir()
        engine = self.engine(cache_dir)
        process = process_sample(self.seed)
        section = Section()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            report = run_extractions(process=process, engine=engine,
                                     observe=observe)
        finally:
            section.wall_s = time.perf_counter() - wall0
            section.cpu_s = time.process_time() - cpu0
            count_tasks(section, engine)
        expect_work(engine, {"tcad_targets": 8, "extraction": 8})
        # task ids read "<kind>:<variant>:<polarity>:<fingerprint>"
        chains: Dict[str, float] = {}
        for record in engine.last_manifest.records:
            device = ":".join(record.task_id.split(":")[1:3])
            chains[device] = chains.get(device, 0.0) + record.wall_time
        section.op_s = sorted(chains.values())
        for device in report.devices:
            if not all(np.isfinite(v) for v in device.errors.values()):
                raise CheckFailed(f"non-finite fit error {device.label}")
        self.fit_error_max_pct = report.max_error()
        section.artefacts = canonical([d.to_dict() for d in report.devices])
        if self.seed == GOLDEN_SEED and self.golden_engine is None:
            self.golden_engine = engine
        else:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return section

    def check_golden(self) -> None:
        # every artefact is a memory hit on the section's engine
        golden_check("extraction_table3",
                     extraction_snapshot(engine=self.golden_engine))


class CellsPpa(Workload):
    """Transient PPA of three cells x four variants on ready models."""

    name = "cells-ppa"
    attributed = ("ppa.simulate_cell_s", "ppa.measure_s")
    bypassed = ("tcad", "extraction")

    def setup(self) -> None:
        self.models_dir = self.fresh_dir()
        engine = self.engine(self.models_dir)
        run = engine.run(merge_tasks(*[model_set_tasks(variant)[1]
                                       for variant in DeviceVariant]))
        if not run.ok:
            raise CheckFailed(f"model-set set-up failed: {run.error}")
        self.fit_error_max_pct = max(
            artefact.max_error() for task_id, artefact
            in run.artifacts.items() if task_id.startswith("extract:"))
        self.parasitics = parasitics_sample(self.seed)
        self.last_engine: Optional[Engine] = None

    def section(self, observe=None) -> Section:
        cache_dir = self.fresh_dir()
        shutil.copytree(self.models_dir, cache_dir, dirs_exist_ok=True)
        engine = self.engine(cache_dir)
        runner = PpaRunner(parasitics=self.parasitics, engine=engine,
                           observe=observe)
        section = Section()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results = runner.sweep(cells=CELLS_PPA_CELLS,
                                   variants=list(DeviceVariant))
        finally:
            section.wall_s = time.perf_counter() - wall0
            section.cpu_s = time.process_time() - cpu0
            count_tasks(section, engine)
        expect_work(engine, {"cell_ppa": 12})
        section.op_s = sorted(record.wall_time
                              for record in engine.last_manifest.records
                              if record.stage == "cell_ppa")
        check_ppa(results)
        section.artefacts = canonical([r.to_dict() for r in results])
        if self.last_engine is not None:
            shutil.rmtree(self.last_engine.cache.cache_dir,
                          ignore_errors=True)
        self.last_engine = engine
        return section

    def check_golden(self) -> None:
        # the INV1X1 and NAND2X1 rows are memory hits on the last engine
        golden_check("ppa_reduced", ppa_snapshot(engine=self.last_engine))


class WarmReplay(Workload):
    """Replays of a cached INV1X1 x 4-variant flow from the disk tier."""

    name = "warm-replay"
    attributed = ("engine.graph_build_s", "engine.run_s")
    bypassed = ("engine.compute", "tcad", "extraction", "compact",
                "spice", "ppa")

    def setup(self) -> None:
        self.cache_dir = self.fresh_dir()
        self.process = process_sample(self.seed)
        engine = self.engine(self.cache_dir)
        result = run_full_flow(cells=REPLAY_CELLS, process=self.process,
                               engine=engine)
        if result.manifest.failures:
            raise CheckFailed("populating flow had failures")
        self.headline = result.headline()
        self.fit_error_max_pct = self.headline[
            "max_extraction_error_percent"]
        for _ in range(REPLAY_WARMUP):
            self.replay()

    def replay(self, observe=None):
        """One replay on a fresh engine: ``(engine, result, headline, s)``."""
        start = time.perf_counter()
        engine = self.engine(self.cache_dir)
        result = run_full_flow(cells=REPLAY_CELLS, process=self.process,
                               engine=engine, observe=observe)
        headline = result.headline()
        return engine, result, headline, time.perf_counter() - start

    def section(self, observe=None) -> Section:
        section = Section()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        replays = [self.replay(observe) for _ in range(REPLAY_BATCH)]
        section.wall_s = time.perf_counter() - wall0
        section.cpu_s = time.process_time() - cpu0
        for engine, result, headline, elapsed in replays:
            if headline != self.headline:
                raise CheckFailed(f"replayed headline {headline} differs "
                                  f"from the populating run's "
                                  f"{self.headline}")
            section.op_s.append(elapsed)
            count_tasks(section, engine)
            expect_work(engine, {})
        check_ppa(item for by_variant in result.ppa.results.values()
                  for item in by_variant.values())
        section.artefacts = canonical({
            "headline": headline,
            "devices": [d.to_dict() for d in result.extraction.devices]})
        return section

    def check_golden(self) -> None:
        engine = self.engine(self.cache_dir)
        golden_check("extraction_table3", extraction_snapshot(engine=engine))
        expect_work(engine, {})


WORKLOADS = {cls.name: cls for cls in (DevicesCold, CellsPpa, WarmReplay)}
