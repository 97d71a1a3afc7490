"""The unified engine API: ``EngineOptions``, ``DataflowContext``,
composite transforms, checkpoint GC, and the knob-table contract.

Covers the API-redesign contract end to end:

- ``EngineOptions`` round-trips between every construction surface
  (kwargs ↔ dict ↔ argparse, with an ``--engine-options`` JSON file
  under the flags), with
  all validation — registry-backed executor names, ``host:port`` worker
  addresses with port-range checks, checkpoint settings — at
  construction time;
- ``DataflowContext`` owns the executor lifecycle (shares passed-in
  instances, closes name-resolved ones) and aggregates touched
  checkpoint digests across pipelines for :meth:`gc_checkpoints`;
- named composites render as collapsible groups in ``explain()`` on the
  real kNN and bounding plans;
- every knob of the field table shows up, exactly once, on every
  surface, and ``options=`` / ``context=`` is the only way in.
"""

import argparse
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.core.problem import SubsetProblem
from repro.dataflow import (
    DataflowContext,
    EngineOptions,
    Fold,
    Pipeline,
    SequentialExecutor,
    ShardedKnn,
    beam_bound,
    beam_knn_graph,
)
from repro.dataflow.bounding_beam import BeamBoundingDriver
from repro.dataflow.library import BoundingFilter
from repro.dataflow.pcollection import PTransform
from repro.dataflow.options import (
    _KNOBS,
    add_engine_arguments,
    parse_worker_address,
)
from tests.conftest import random_problem
from tests.test_knn import clustered_points


class TestEngineOptionsValidation:
    def test_defaults(self):
        o = EngineOptions()
        assert o.executor == "sequential"
        assert o.num_shards == 8
        assert o.optimize is None
        assert o.workers is None

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            EngineOptions("threads")

    def test_executor_instance_accepted(self):
        executor = SequentialExecutor()
        assert EngineOptions(executor).executor is executor

    def test_range_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            EngineOptions(num_shards=0)

    def test_workers_require_remote(self):
        with pytest.raises(ValueError, match="remote"):
            EngineOptions("thread", workers=("localhost:7077",))

    def test_instance_executor_rejects_factory_only_knobs(self):
        """workers configure the executor *factory*; pairing them with an
        already-built instance would silently drop them, so it is an
        error instead."""
        executor = SequentialExecutor()
        with pytest.raises(ValueError, match="instance"):
            EngineOptions(executor, workers=("h:1",))

    def test_worker_addresses_validated_at_construction(self):
        """Satellite bugfix: a malformed address fails here, not deep
        inside RemoteExecutor at connect time."""
        for bad in ("localhost", "host:", ":7077", "host:port", "host:0",
                    "host:65536", "host:-1"):
            with pytest.raises(ValueError):
                EngineOptions("remote", workers=(bad,))

    def test_worker_addresses_normalized(self):
        o = EngineOptions("remote", workers=[("10.0.0.1", 7077), "h:80"])
        assert o.workers == ("10.0.0.1:7077", "h:80")
        # A comma-separated string (the CLI/env form) also parses.
        assert EngineOptions("remote", workers="a:1,b:2").workers == (
            "a:1", "b:2"
        )

    def test_parse_worker_address_port_range(self):
        assert parse_worker_address("h:65535") == ("h", 65535)
        with pytest.raises(ValueError, match="65535"):
            parse_worker_address("h:99999")
        with pytest.raises(ValueError):
            parse_worker_address(("h", "nope"))

    @pytest.mark.parametrize("pair, want", [
        (("h", 7077), ("h", 7077)),
        (("h", np.int64(7077)), ("h", 7077)),
        (("h", "7077"), ("h", 7077)),
        (["h", 80], ("h", 80)),
    ])
    def test_pair_ports_that_are_integers_parse(self, pair, want):
        host, port = parse_worker_address(pair)
        assert (host, port) == want and type(port) is int

    @pytest.mark.parametrize("port", [True, False, 7077.9, 7077.0, None,
                                      "7077.0", " 7077"])
    def test_pair_ports_are_checked_not_coerced(self, port):
        """``int(True)`` / ``int(7077.9)`` used to pick port 1 / 7077 —
        another address than the one written."""
        with pytest.raises(ValueError, match="port"):
            parse_worker_address(("h", port))

    def test_immutable(self):
        o = EngineOptions()
        with pytest.raises(AttributeError, match="immutable"):
            o.num_shards = 4


class TestEngineOptionsRoundTrips:
    OPTIONS = EngineOptions(
        "remote", num_shards=16, spill_to_disk=True, optimize=False,
        workers=("10.0.0.1:7077", "10.0.0.2:7078"), checkpoint_dir="ckpt",
        adaptive=True, shuffle="worker",
    )

    def test_dict_round_trip(self):
        assert EngineOptions.from_dict(self.OPTIONS.to_dict()) == self.OPTIONS
        with pytest.raises(ValueError, match="unknown engine option"):
            EngineOptions.from_dict({"shards": 4})

    def test_argparse_round_trip(self):
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args([
            "--executor", "remote", "--num-shards", "16", "--spill-to-disk",
            "--no-optimize",
            "--workers", "10.0.0.1:7077,10.0.0.2:7078",
            "--checkpoint-dir", "ckpt", "--adaptive-plan",
            "--shuffle", "worker",
        ])
        assert EngineOptions.from_namespace(args) == self.OPTIONS

    def test_namespace_precedence_json_flags(self, tmp_path, monkeypatch):
        """defaults < --engine-options JSON < explicit flags — and no
        environment rung under them."""
        monkeypatch.setenv("REPRO_ENGINE_NUM_SHARDS", "2")
        blob = tmp_path / "options.json"
        blob.write_text(json.dumps({"num_shards": 4, "executor": "thread"}))
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)

        args = parser.parse_args(["--engine-options", str(blob)])
        o = EngineOptions.from_namespace(args)
        assert (o.num_shards, o.executor) == (4, "thread")

        args = parser.parse_args(
            ["--engine-options", str(blob), "--num-shards", "6"]
        )
        assert EngineOptions.from_namespace(args).num_shards == 6

        args = parser.parse_args([])
        assert EngineOptions.from_namespace(args) == EngineOptions()
        assert not hasattr(EngineOptions, "from_env")

    def test_namespace_cross_layer_constraints(self, tmp_path):
        """Cross-field validation runs on the merged layers, not per
        layer: workers from the JSON file plus --executor remote from the
        command line is a valid combination."""
        blob = tmp_path / "options.json"
        blob.write_text(json.dumps({"workers": ["h:1"]}))
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args(
            ["--engine-options", str(blob), "--executor", "remote"]
        )
        o = EngineOptions.from_namespace(args)
        assert (o.executor, o.workers) == ("remote", ("h:1",))
        with pytest.raises(ValueError, match="remote"):
            EngineOptions.from_namespace(
                parser.parse_args(["--engine-options", str(blob)])
            )

    def test_boolean_flags_override_the_file_both_ways(self, tmp_path):
        """--no-spill-to-disk / --optimize can undo --engine-options
        settings, so the documented precedence holds in both directions."""
        blob = tmp_path / "options.json"
        blob.write_text(json.dumps({"spill_to_disk": True, "optimize": False}))
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        args = parser.parse_args([
            "--engine-options", str(blob), "--no-spill-to-disk", "--optimize",
        ])
        o = EngineOptions.from_namespace(args)
        assert (o.spill_to_disk, o.optimize) == (False, True)


class TestDataflowContext:
    def test_owns_named_executor(self):
        ctx = DataflowContext(EngineOptions("sequential"))
        executor = ctx.executor
        ctx.close()
        with pytest.raises(RuntimeError):
            ctx.pipeline()
        assert executor is not None

    def test_shares_instance_executor(self):
        executor = SequentialExecutor()
        with DataflowContext(EngineOptions(executor)) as ctx:
            assert ctx.executor is executor
        # Shared instances survive the context.
        assert executor.run_stage(len, [[1, 2]]) == [2]

    def test_pipelines_share_the_executor(self):
        executor = SequentialExecutor()
        with DataflowContext(EngineOptions(executor, num_shards=3)) as ctx:
            first = ctx.pipeline()
            second = ctx.pipeline()
            assert first.executor is executor is second.executor
            assert first.num_shards == 3
            assert sorted(first.create(range(5)).to_list()) == list(range(5))
            first.close()
            # Closing one pipeline leaves the shared executor usable.
            assert second.create(range(4)).count() == 4
            second.close()

    @pytest.mark.parametrize(
        "removed", ["checkpoint_salt", "stream_chunk_size", "plan_records"]
    )
    def test_pipeline_is_the_context_options_alone(self, tmp_path, removed):
        """A context's pipeline takes no keyword: it is the context's
        options alone, and ``Pipeline`` has no per-pipeline source or
        salt keyword either."""
        from repro.dataflow.pcollection import Pipeline

        options = EngineOptions(checkpoint_dir=str(tmp_path / "ckpt"))
        with DataflowContext(options) as ctx:
            with pytest.raises(TypeError, match=removed):
                ctx.pipeline(**{removed: 1})
            pipeline = ctx.pipeline()
            assert pipeline.checkpoint_dir == options.checkpoint_dir
            assert not hasattr(pipeline, removed)
            pipeline.close()
        with pytest.raises(TypeError, match=removed):
            Pipeline(**{removed: 1})

    def test_bounding_driver_closes_private_context_on_init_failure(
        self, small_problem, monkeypatch
    ):
        """A constructor failure after the driver entered its private
        context must not leak the context (or its executor/cluster)."""
        closed = []
        original = DataflowContext.close

        def spying_close(self):
            closed.append(1)
            original(self)

        monkeypatch.setattr(DataflowContext, "close", spying_close)
        with pytest.raises(TypeError):
            BeamBoundingDriver(
                small_problem, options=EngineOptions(num_shards=4),
                seed=object(),
            )
        assert closed


def _checkpointed_job(pipeline, n):
    return sorted(
        pipeline.create(range(n), name="src")
        .key_by(lambda x: x % 5)
        .group_by_key()
        .map_values(Fold.sum())
        .to_list()
    )


class TestCheckpointGc:
    def test_untouched_entries_dropped(self, tmp_path):
        """ROADMAP follow-up: directories only grow — GC drops entries
        whose plan digest the current run never touched."""
        ckpt = str(tmp_path / "ckpt")

        def run(n, gc=False):
            pipeline = Pipeline(num_shards=4, checkpoint_dir=ckpt)
            try:
                out = _checkpointed_job(pipeline, n)
                removed = pipeline.gc_checkpoints() if gc else 0
                return out, pipeline.metrics, removed
            finally:
                pipeline.close()

        run(100)
        stale = set(os.listdir(ckpt))
        assert stale
        # A different input keys entirely new boundaries...
        _, m2, removed = run(101, gc=True)
        assert m2.checkpoint_hits == 0
        # ...so GC drops exactly the first run's entries.
        assert removed == len(stale)
        assert not (set(os.listdir(ckpt)) & stale)
        # The second run still resumes from its own (kept) entries.
        out3, m3, _ = run(101)
        assert m3.checkpoint_hits > 0

    def test_touched_entries_survive(self, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        pipeline = Pipeline(num_shards=4, checkpoint_dir=ckpt)
        try:
            first = _checkpointed_job(pipeline, 80)
            assert pipeline.gc_checkpoints() == 0
        finally:
            pipeline.close()
        rerun = Pipeline(num_shards=4, checkpoint_dir=ckpt)
        try:
            assert _checkpointed_job(rerun, 80) == first
            assert rerun.metrics.checkpoint_hits > 0
        finally:
            rerun.close()

    def test_orphaned_tmp_files_collected(self, tmp_path):
        """A run killed mid-store leaves '.ckpt.tmp-*' leftovers; GC must
        collect them (they are the same unbounded-growth problem)."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "aaaa.ckpt.tmp-deadbeef").write_bytes(b"partial")
        pipeline = Pipeline(num_shards=2, checkpoint_dir=str(ckpt))
        try:
            assert pipeline.gc_checkpoints() == 1
            assert os.listdir(ckpt) == []
        finally:
            pipeline.close()

    def test_keep_protects_foreign_digests(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "aaaa.ckpt").write_bytes(b"x")
        (ckpt / "bbbb.ckpt").write_bytes(b"x")
        pipeline = Pipeline(num_shards=2, checkpoint_dir=str(ckpt))
        try:
            assert pipeline.gc_checkpoints(keep=["aaaa"]) == 1
            assert os.listdir(ckpt) == ["aaaa.ckpt"]
        finally:
            pipeline.close()

    def test_context_aggregates_across_pipelines(self, tmp_path):
        """The selector scenario: bounding and greedy each run their own
        pipeline; GC through the context must protect both stages'
        entries."""
        ckpt = str(tmp_path / "ckpt")
        with DataflowContext(EngineOptions(checkpoint_dir=ckpt)) as ctx:
            a = ctx.pipeline()
            _checkpointed_job(a, 60)
            a.close()
            b = ctx.pipeline()
            sorted(b.create(range(40), name="other").map(lambda x: -x).to_list())
            b.close()
            assert ctx.gc_checkpoints() == 0
        survivors = set(os.listdir(ckpt))
        # Both stages' boundaries are still on disk.
        assert len(survivors) >= 2

    def test_checkpoint_gc_requires_dataflow_and_dir(self):
        """A checkpoint_gc run that could never collect anything is a
        configuration error, not a silent no-op."""
        with pytest.raises(ValueError, match="checkpoint_gc"):
            SelectorConfig(engine="dataflow", checkpoint_gc=True)
        with pytest.raises(ValueError, match="checkpoint_gc"):
            SelectorConfig(
                checkpoint_gc=True,
                options=EngineOptions(checkpoint_dir="ckpt"),
            )

    def test_selector_checkpoint_gc_flag(self, tmp_path):
        ds_problem = random_problem(60, seed=7)
        ckpt = str(tmp_path / "ckpt")

        def config(**kwargs):
            return SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow",
                options=EngineOptions(num_shards=4, checkpoint_dir=ckpt),
                **kwargs,
            )

        DistributedSelector(ds_problem, config()).select(10, seed=0)
        # Strand some entries by changing the budget (different plans).
        before = set(os.listdir(ckpt))
        report = DistributedSelector(
            ds_problem, config(checkpoint_gc=True)
        ).select(12, seed=0)
        assert report.extra["checkpoint_gc_removed"] > 0
        assert set(os.listdir(ckpt)) != before


class TestCompositeGroups:
    """Acceptance: explain() shows named composite groups on the real
    kNN and bounding plans."""

    def test_knn_plan_shows_sharded_knn_group(self):
        x, _ = clustered_points(n=80, n_clusters=4)
        from repro.graph.knn import l2_normalize

        xn = l2_normalize(x)
        centroids = xn[:4]
        pipeline = Pipeline(num_shards=4)
        try:
            merged = pipeline.create(range(80), name="knn/source").apply(
                ShardedKnn(xn, centroids, k=5, nprobe=2)
            )
            plan = merged.explain()
        finally:
            pipeline.close()
        assert "[composite 'ShardedKnn']" in plan
        # Stages inside the group are indented under the header.
        header = plan.index("[composite 'ShardedKnn']")
        assert "\n  S" in plan[header:]

    def test_bounding_plan_shows_bounding_filter_group(self, small_problem):
        driver = BeamBoundingDriver(
            small_problem, options=EngineOptions(num_shards=4)
        )
        try:
            solution = driver.pipeline.create_keyed([], name="state/solution")
            remaining = driver.pipeline.create_keyed(
                [(v, True) for v in range(small_problem.n)],
                name="state/remaining",
            )
            # Applied directly: ``_round_bounds`` caches its result, and
            # a materialized node renders no plan.
            plan = remaining.apply(
                BoundingFilter(
                    driver.neighbors, driver.utilities, solution,
                    ratio=small_problem.beta_over_alpha,
                )
            ).explain(costs=False)
        finally:
            driver.close()
        assert "[composite 'BoundingFilter']" in plan
        if driver.pipeline.optimize:
            # One exchange per round: the graph, the solution and the
            # remaining set are read in place — only the live edges,
            # re-keyed by ``bound/invert``, get a write stage, and the
            # three-way join, which moves nothing, runs inside it.
            # The graph source is the packed adjacency columns, routed
            # when the driver was built.
            assert plan.count("cogroup-write #") == 1
            assert (
                "cogroup-write #2 cogroup 'bound/bounds_join' "
                "[fused: cogroup 'bound/threeway_join' + flat_map "
                "'bound/invert'] [vectorized] "
                "(elided reshard 'bound/invert_key') <- "
                "[materialized source 'source/neighbors'] [co-partitioned], "
                "[materialized source 'state/solution'] [co-partitioned], "
                "[materialized source 'state/remaining'] [co-partitioned]"
            ) in plan
            assert "cogroup-read cogroup 'bound/threeway_join'" not in plan
            assert (
                "+ filter 'bound/bounded' + map_keyed_values 'bound/reduce' "
                "[post-shuffle fused] [vectorized] <- "
            ) in plan
        else:
            assert plan.count("cogroup-write #") == 6
        # One application is one group: interleaved out-of-scope lines
        # (another input's stages) mark re-entry as resumed instead of
        # opening what reads like a second application.
        assert plan.count("[composite 'BoundingFilter']") == 1
        resumed = plan.count("[composite 'BoundingFilter' (resumed)]")
        headers = plan.count("composite 'BoundingFilter'")
        assert headers == 1 + resumed

    def test_greedy_round_group_named_per_round(self, small_problem):
        from repro.dataflow import beam_distributed_greedy

        result, metrics = beam_distributed_greedy(
            small_problem, 8, m=2, rounds=2, seed=0,
            options=EngineOptions(num_shards=4),
        )
        assert len(result) == 8  # composites are organization, not semantics

    def test_unscoped_plans_render_unchanged(self):
        pipeline = Pipeline(num_shards=2)
        try:
            plan = pipeline.create(range(4)).map(lambda x: x).explain()
        finally:
            pipeline.close()
        assert "composite" not in plan

    def test_apply_rejects_non_transforms(self):
        pipeline = Pipeline(num_shards=2)
        try:
            with pytest.raises(TypeError, match="PTransform"):
                pipeline.create(range(4)).apply(lambda c: c)
        finally:
            pipeline.close()

    def test_or_sugar(self):
        class Largest(PTransform):
            def expand(self, pairs):
                return pairs.group_by_key().map_values(max)

        pipeline = Pipeline(num_shards=2)
        try:
            pairs = pipeline.create_keyed([(i % 2, i) for i in range(10)])
            best = pairs | Largest()
            plan = best.explain()
            out = dict(best.to_list())
        finally:
            pipeline.close()
        assert out == {0: 8, 1: 9}
        assert "[composite 'Largest']" in plan


def _sample(knob):
    """A legal non-default ``(value, command-line text)`` for ``knob``,
    chosen from its table entry — a new entry needs no new case."""
    if knob.flag_type is int:
        return knob.default + 1, str(knob.default + 1)
    if knob.flag_type is bool:
        return (not knob.default), None
    if knob.choices:
        word = "thread" if knob.name == "executor" else knob.choices[0]
        return word, word
    if knob.name == "workers":
        return ("h:1", "g:2"), "h:1,g:2"
    word = f"{knob.name}-value"
    return word, word


#: The cross-field rules: knobs that are only legal next to another one.
_COMPANIONS = {
    "workers": {"executor": "remote"},
}


class TestKnobTableContract:
    """One entry of the field table is all a knob is: each one must show
    up — exactly once — as a flag family and a dict key, and survive
    a dict round trip and pickle."""

    def test_exact_knob_set(self):
        """The configuration space, pinned: a knob added or removed is a
        deliberate edit here (14 -> 12 when ``columnar`` and ``fuse``,
        which no caller ever switched off, stopped being options; 12 -> 8
        when ``stream_source``, ``checkpoint_salt``,
        ``broadcast_min_bytes`` and ``stream_chunk_size``, which no caller
        set, did)."""
        assert tuple(knob.name for knob in _KNOBS) == (
            "executor", "num_shards", "spill_to_disk", "optimize",
            "workers", "checkpoint_dir", "adaptive", "shuffle",
        )
        assert tuple(EngineOptions().to_dict()) == EngineOptions._FIELDS
        assert not hasattr(EngineOptions, "derive")

    @pytest.mark.parametrize("removed", [
        "columnar", "fuse", "stream_source", "checkpoint_salt",
        "broadcast_min_bytes", "stream_chunk_size",
    ])
    def test_removed_knobs_are_rejected_on_every_surface(self, removed):
        """A removed knob is an unknown key everywhere a knob can arrive
        from — never silently ignored."""
        from repro.dataflow.pcollection import Pipeline

        with pytest.raises(TypeError, match=removed):
            EngineOptions(**{removed: True})
        with pytest.raises(TypeError, match=removed):
            Pipeline(**{removed: True})
        with pytest.raises(ValueError, match=f"unknown.*{removed}"):
            EngineOptions.from_dict({removed: True})
        parser = argparse.ArgumentParser()
        add_engine_arguments(parser)
        help_text = parser.format_help()
        flag = removed.replace("_", "-")
        assert f"--{flag}" not in help_text
        assert f"--no-{flag}" not in help_text

    def test_every_flag_family_belongs_to_one_knob(self):
        parser = argparse.ArgumentParser()
        group = add_engine_arguments(parser)
        families = {}
        for action in group._group_actions:
            families.setdefault(action.dest, []).extend(action.option_strings)
        assert families.pop("engine_options") == ["--engine-options"]
        assert families == {
            knob.dest or knob.name: [option for option, _ in knob.flags]
            for knob in _KNOBS
            if knob.flags
        }

    @pytest.mark.parametrize("knob", _KNOBS, ids=lambda knob: knob.name)
    def test_knob_on_every_surface(self, knob):
        value, text = _sample(knob)
        companions = _COMPANIONS.get(knob.name, {})
        options = EngineOptions(**{knob.name: value}, **companions)
        assert getattr(options, knob.name) == value != knob.default
        others = [k.name for k in _KNOBS if k.name not in (knob.name, *companions)]
        bystander = others[1]

        # dict, as a JSON body or file spells it
        assert EngineOptions.from_dict(options.to_dict()) == options
        assert EngineOptions.from_dict(json.loads(json.dumps(
            {knob.name: options.to_dict()[knob.name], **companions}
        ))) == options
        # command line (knobs that have flags)
        if knob.flags:
            parser = argparse.ArgumentParser()
            add_engine_arguments(parser)
            positive = next(
                option for option, _ in knob.flags
                if not option.startswith("--no-")
            )
            argv = [positive] if knob.flag_type is bool else [positive, text]
            for name, word in companions.items():
                argv += [f"--{name.replace('_', '-')}", word]
            assert EngineOptions.from_namespace(
                parser.parse_args(argv)
            ) == options
        # setting another knob next to it, and pickle, keep the value
        bystander_value, _ = _sample(
            next(k for k in _KNOBS if k.name == bystander)
        )
        both = EngineOptions.from_dict(
            {**options.to_dict(), bystander: bystander_value}
        )
        assert getattr(both, knob.name) == value
        assert getattr(both, bystander) == bystander_value
        assert pickle.loads(pickle.dumps(options)) == options

    @pytest.mark.parametrize("blob, knob", [
        ('{"spill_to_disk": "false"}', "spill_to_disk"),
        ('{"spill_to_disk": 0}', "spill_to_disk"),
        ('{"adaptive": "no"}', "adaptive"),
        ('{"num_shards": 2.7}', "num_shards"),
        ('{"num_shards": "4"}', "num_shards"),
        ('{"num_shards": true}', "num_shards"),
        ('{"num_shards": 1e6}', "num_shards"),
        ('{"executor": "remote", "workers": [["10.0.0.1", true]]}', "port"),
        ('{"optimize": "false"}', "optimize"),
    ])
    def test_outside_input_is_not_silently_coerced(self, blob, knob):
        """Satellite bugfix: ``bool("false")`` / ``int(2.7)`` /
        ``int(True)`` used to turn these into *different* settings."""
        with pytest.raises(ValueError, match=knob):
            EngineOptions.from_dict(json.loads(blob))

    def test_numpy_integers_still_accepted(self):
        options = EngineOptions(num_shards=np.int64(4))
        assert options.num_shards == 4 and type(options.num_shards) is int


class TestOneWayIn:
    """The per-function engine keywords are gone, not deprecated."""

    def test_removed_keywords_are_plain_type_errors(self, small_problem):
        from repro.dataflow import beam_distributed_greedy, beam_score
        from repro.dataflow.bounding_beam import BeamBoundingConfig

        x, _ = clustered_points(n=40, n_clusters=2)
        with pytest.raises(TypeError, match="num_shards"):
            beam_knn_graph(x, 5, num_shards=4)
        with pytest.raises(TypeError, match="executor"):
            beam_bound(small_problem, 3, executor="thread")
        with pytest.raises(TypeError, match="spill_to_disk"):
            beam_distributed_greedy(small_problem, 3, m=2, spill_to_disk=True)
        with pytest.raises(TypeError, match="checkpoint_dir"):
            beam_score(small_problem, np.arange(3), checkpoint_dir="ckpt")
        with pytest.raises(TypeError, match="num_shards"):
            SelectorConfig(num_shards=4)
        with pytest.raises(TypeError, match="num_shards"):
            BeamBoundingConfig(num_shards=4)
        assert not hasattr(SelectorConfig(), "num_shards")

    def test_imports_clean_under_deprecation_errors(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro.dataflow, repro.core.pipeline"],
            check=True, env=env,
        )


class TestCliIntegration:
    def test_engine_options_json_smoke(self, tmp_path, capsys):
        """The CI smoke path: ``select --engine-options options.json``."""
        from repro.cli import main

        blob = tmp_path / "options.json"
        blob.write_text(json.dumps({"executor": "thread", "num_shards": 4}))
        code = main([
            "select", "--preset", "cifar100_tiny", "--n-points", "200",
            "--k", "20", "--engine", "dataflow",
            "--engine-options", str(blob),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "selected 20 of 200" in out
        assert "engine:" in out

    def test_checkpoint_gc_flag(self, tmp_path, capsys):
        from repro.cli import main

        ckpt = str(tmp_path / "ckpt")
        args = [
            "select", "--preset", "cifar100_tiny", "--n-points", "150",
            "--engine", "dataflow", "--checkpoint-dir", ckpt, "--seed", "0",
        ]
        assert main(args + ["--k", "10"]) == 0
        assert main(args + ["--k", "12", "--checkpoint-gc"]) == 0
        assert "checkpoint gc: removed" in capsys.readouterr().out
