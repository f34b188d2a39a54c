"""ContinuousTask through the runner: keys, caching, manifests, audit."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runner import make_runner
from repro.runner.tasks import ContinuousTask, HeuristicSpec
from repro.simulator.continuous import ContinuousResult
from repro.topology.generators import line_topology
from repro.topology.graph import Topology


def zoned_topology():
    base = line_topology(num_nodes=6, hop_latency_ms=40.0)
    return Topology(
        latency=base.latency,
        origin=base.origin,
        populations=base.populations,
        zones=np.asarray([0, 0, 1, 1, 2, 2]),
    )


def small_task(**overrides):
    params = dict(
        topology=zoned_topology(),
        heuristic=HeuristicSpec("qiu", replicas=1, period_s=600.0, tlat_ms=80.0),
        epochs=2,
        epoch_s=1800.0,
        requests_per_epoch=300,
        num_objects=8,
        drift=0.2,
        workload_seed=3,
        slo=0.9,
        faults="zonepart:zone=1,at=300,down=300",
        label="continuous-test",
    )
    params.update(overrides)
    return ContinuousTask(**params)


class TestCacheKey:
    def test_stable_across_identical_tasks(self):
        assert small_task().cache_key() == small_task().cache_key()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 3),
            ("drift", 0.3),
            ("workload_seed", 4),
            ("fault_seed", 1),
            ("faults", None),
            ("slo", 0.99),
            ("shed_capacity", 2),
            ("object_size_bytes", 2.0),
        ],
    )
    def test_semantic_fields_change_the_key(self, field, value):
        assert small_task(**{field: value}).cache_key() != small_task().cache_key()

    def test_heuristic_knobs_change_the_key(self):
        healed = small_task(
            heuristic=HeuristicSpec(
                "qiu", replicas=1, period_s=600.0, tlat_ms=80.0,
                heal=True, heal_zones=3,
            )
        )
        assert healed.cache_key() != small_task().cache_key()

    def test_label_and_audit_are_not_semantic(self):
        assert (
            small_task(label="other", audit="full").cache_key()
            == small_task().cache_key()
        )


class TestRunAndSerialize:
    def test_run_is_deterministic(self):
        a, b = small_task().run(), small_task().run()
        assert isinstance(a, ContinuousResult)
        assert a.to_dict() == b.to_dict()
        assert len(a.epochs) == 2
        assert a.slo_target == 0.9

    def test_encode_decode_round_trip(self):
        result = small_task().run()
        back = ContinuousTask.decode(ContinuousTask.encode(result))
        assert back.to_dict() == result.to_dict()

    def test_summarize_exposes_the_availability_digest(self):
        result = small_task().run()
        digest = ContinuousTask.summarize(result)
        assert digest["availability"] == result.availability
        assert digest["unavailable_reads"] == result.unavailable_reads
        assert digest["slo_target"] == 0.9
        assert digest["slo_violations"] == result.slo_violations

    def test_bad_fault_spec_raises_validation_error(self):
        task = small_task(faults="zonepart:zone=9,at=0,down=60")
        with pytest.raises(ValidationError):
            task.run()

    def test_zone_clause_requires_a_zone_map(self):
        base = line_topology(num_nodes=6, hop_latency_ms=40.0)
        task = small_task(topology=base)
        with pytest.raises(ValidationError, match="needs a zone map"):
            task.run()


class TestThroughTheRunner:
    def test_cache_round_trip_and_manifest_availability(self, tmp_path):
        task = small_task()
        cold = make_runner(
            jobs=1, cache_dir=tmp_path / "cache", run_dir=tmp_path / "runs"
        )
        first = cold.map([task])[0]
        run_dir = Path(cold.finalize())
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["cache_hits"] == 0
        block = manifest["availability"]
        assert block["tasks"] == 1
        assert block["slo_judged"] == 1
        assert block["min_availability"] == pytest.approx(first.availability)
        assert block["unavailable_reads"] == first.unavailable_reads
        assert block["slo_violations"] == first.slo_violations

        warm = make_runner(
            jobs=1, cache_dir=tmp_path / "cache", run_dir=tmp_path / "runs"
        )
        second = warm.map([task])[0]
        warm_manifest = json.loads(
            (Path(warm.finalize()) / "manifest.json").read_text()
        )
        assert warm_manifest["cache_hits"] == 1
        assert second.to_dict() == first.to_dict()

    def test_audit_full_passes_on_a_real_run(self, tmp_path):
        task = small_task(audit="full")
        runner = make_runner(jobs=1, cache_dir=tmp_path / "cache")
        result = runner.map([task])[0]
        assert isinstance(result, ContinuousResult)

    def test_unjudged_task_counts_no_slo(self, tmp_path):
        task = small_task(slo=None)
        runner = make_runner(
            jobs=1, cache_dir=tmp_path / "cache", run_dir=tmp_path / "runs"
        )
        runner.map([task])
        manifest = json.loads(
            (Path(runner.finalize()) / "manifest.json").read_text()
        )
        block = manifest["availability"]
        assert block["slo_judged"] == 0
        assert block["slo_violations"] == 0

    def test_describe_names_the_zone_and_slo_knobs(self):
        desc = small_task().describe()
        assert desc["heuristic"] == "qiu"
        assert desc["slo"] == 0.9
        assert desc["faults"] == "zonepart:zone=1,at=300,down=300"
        assert "heal_zones" in desc

    def test_task_is_picklable(self):
        import pickle

        task = small_task()
        clone = pickle.loads(pickle.dumps(task))
        assert clone.cache_key() == task.cache_key()


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_cost_weights_are_refused(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        small_task(**{field: value})
