"""Self-test of the benchmark itself; run with `python3 -m pytest perfbench`."""

import dataclasses
import itertools
import json
import math
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from diskpack import analysis, layout  # noqa: E402
from diskpack.errors import NonConvergenceError  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, properties  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(wl, seed, units=2):
    return [x for u in itertools.islice(wl.units(random.Random(f"{wl.name}/{seed}"), True), units) for x in u]


def _texts(items):
    return [(getattr(i, "text", None) or i.disks_text + i.graph_text) for i in items]


def _shape(item):
    # what a unit fixes about an input: its size and its variant
    return {k: v for k, v in properties(item).items() if k in ("vertices", "labels", "disks", "case")}


def test_a_seed_generates_identical_inputs():
    for wl in WORKLOADS.values():
        a, b, c = _tiny(wl, 7), _tiny(wl, 7), _tiny(wl, 8)
        assert _texts(a) == _texts(b), wl.name
        assert _texts(a) != _texts(c), wl.name
        assert len(set(_texts(a))) == len(a), wl.name  # every op gets an input of its own
        half = len(wl.tiny_unit)
        assert [_shape(x) for x in a[:half]] == [_shape(x) for x in a[half:]], wl.name  # every unit alike


def test_patch_labels_are_zero_or_inside_the_band():
    import gen

    rng = random.Random(3)
    patch = gen.delaunay_patch(rng, 40, "mixed")
    angles = json.loads(patch.text)["angles_deg"]
    assert 0 < len(angles) < patch.contacts
    assert all(gen.LABEL_MIN_DEG <= a <= gen.LABEL_MAX_DEG for a in angles.values())
    assert json.loads(gen.delaunay_patch(rng, 40, "tangency").text)["angles_deg"] == {}


def test_patches_have_one_boundary_radius_and_no_chord():
    import gen

    rng = random.Random(5)
    for n in (16, 25, 30):
        doc = json.loads(gen.delaunay_patch(rng, n, "tangency").text)
        boundary = set(doc["boundary"])
        assert len(set(doc["boundary_radii"].values())) == 1
        # without a chord, a boundary vertex's only boundary neighbors are
        # the two next to it on the hull
        assert all(sum(u in boundary for u in doc["rotation"][v]) == 2 for v in boundary), n


def _run_tiny(wl, seed=1):
    tracer = Tracer()
    items = _tiny(wl, seed)
    failures = []
    for i, item in enumerate(items):
        tracer.begin_op(i)
        seconds, end, failure, _, _ = run.run_op(wl, item, tracer)
        tracer.end_op(end, failure)
        assert seconds > 0
        failures.append(failure)
    return tracer, items, failures


def test_tiny_runs_complete_without_failures():
    for wl in WORKLOADS.values():
        tracer, items, failures = _run_tiny(wl)
        assert not any(failures), (wl.name, failures)
        ops = [s for s in tracer.spans if s["name"] == "op"]
        calls = [s for s in tracer.spans if s["name"] != "op"]
        assert len(ops) == len(items)
        assert all(s["parent"] in {o["id"] for o in ops} for s in calls)
        assert all(s["start"] <= s["end"] for s in tracer.spans)


_real_solve_radii = layout.solve_radii


def _stops_short(problem):
    return _real_solve_radii(dataclasses.replace(problem, tol=1e-3))


def _gives_up(problem):
    raise NonConvergenceError("gave up", math.inf, 0)


@pytest.mark.parametrize("workload", ["pack_delaunay", "roundtrip_overlap"])
@pytest.mark.parametrize("solver", [_stops_short, _gives_up])
def test_a_worse_solver_makes_the_run_incorrect(monkeypatch, workload, solver):
    # A faster answer that is worse must not pass: every op fails, with a
    # class that names the cause.
    monkeypatch.setattr(layout, "solve_radii", solver)
    _, _, failures = _run_tiny(WORKLOADS[workload])
    assert all(f for f in failures), failures
    assert all(NAME.fullmatch(f) for f in failures), failures
    assert set(failures) <= {"solve.angle-sum", "raise.layout.solve_radii.NonConvergenceError"}, failures


def test_a_call_that_raises_after_the_pack_is_named(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(analysis, "is_thin", boom)
    _, _, failures = _run_tiny(WORKLOADS["roundtrip_overlap"])
    assert set(failures) == {"raise.analysis.is_thin.RuntimeError"}


def test_layers_are_measured_only_where_they_work():
    wl = WORKLOADS["analyze_lattice"]
    tracer = Tracer()
    tracer.begin_op(0)
    item = next(item for item in _tiny(wl, 1) if item.case == "thick-overlap")
    wl.op(item, tracer, SimpleNamespace())
    tracer.end_op(0.0, None)
    measured = tracer.metrics()
    assert measured["analysis.is_thin.s"] > 0
    assert measured["analysis.thin_violations"] > 0
    assert not any(k.startswith("layout.") for k in measured)


def test_failed_call_is_named_in_the_failure_class():
    class Boom:
        name = "boom"

        @staticmethod
        def op(item, tr, out):
            out.value = tr.call("layout.solve_radii", lambda: 1 / 0)

        @staticmethod
        def check(item, out):
            return None

    for tracer in (NullTracer(), Tracer()):
        tracer.begin_op(0)
        _, _, failure, exc, _ = run.run_op(Boom, None, tracer)
        assert failure == "raise.layout.solve_radii.ZeroDivisionError"
        assert isinstance(exc, ZeroDivisionError)


def test_emitted_names_and_units_are_well_formed():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_every_metric_on_its_last_line():
    for trace, metrics in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
        proc = _run(ROOT, "--workload", "roundtrip_overlap", "--seed", "1", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in metrics
        }


def test_command_fails_without_the_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "pack_delaunay", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
