"""Tests for serialization (repro.io) and the command-line interface."""

import json
import os
import re

import numpy as np
import pytest

from repro.cli import main
from repro.core.pipeline import DistributedSelector, SelectorConfig
from repro.data.registry import load_dataset
from repro.io import report_to_dict, save_report
from repro.core.problem import SubsetProblem


@pytest.fixture(scope="module")
def ds():
    return load_dataset("cifar100_tiny", n_points=300, seed=0)


class TestReportIO:
    def test_round_trip(self, ds, tmp_path):
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        report = DistributedSelector(
            problem,
            SelectorConfig(bounding="exact", machines=2, rounds=2),
        ).select(30, seed=0)
        path = str(tmp_path / "report.json")
        save_report(report, path)
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["version"] == 1
        assert loaded["selected"] == report.selected.tolist()
        assert loaded["objective"] == pytest.approx(report.objective)
        assert loaded["bounding"]["grow_rounds"] >= 1
        assert loaded["config"]["machines"] == 2

    def test_dict_has_greedy_rounds(self, ds):
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        report = DistributedSelector(
            problem, SelectorConfig(machines=2, rounds=3)
        ).select(30, seed=0)
        data = report_to_dict(report)
        assert len(data["greedy_rounds"]) == 3

    def test_no_bounding_section_without_bounding(self, ds):
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        report = DistributedSelector(
            problem, SelectorConfig(machines=2, rounds=1)
        ).select(20, seed=0)
        data = report_to_dict(report)
        assert "bounding" not in data
        assert data["config"]["bounding"] is None
        assert "engine_metrics" not in data  # the in-memory engine

    def test_dataflow_report_is_json_with_engine_metrics(self, ds):
        """A dataflow run's report carries both stages' pipeline metrics
        and the engine options as plain JSON (the executor by name)."""
        problem = SubsetProblem.with_alpha(ds.utilities, ds.graph, 0.9)
        report = DistributedSelector(
            problem,
            SelectorConfig(
                bounding="exact", machines=2, rounds=2, engine="dataflow"
            ),
        ).select(20, seed=0)
        data = json.loads(json.dumps(report_to_dict(report)))
        assert set(data["engine_metrics"]) == {
            "bounding_metrics", "greedy_metrics"
        }
        assert data["config"]["engine"] == "dataflow"
        assert data["config"]["options"]["executor"] == "sequential"
        assert data["selected"] == report.selected.tolist()

class TestCLI:
    def test_select_preset(self, tmp_path, capsys):
        out = str(tmp_path / "ids.npy")
        code = main([
            "select", "--preset", "cifar100_tiny", "--n-points", "300",
            "--k", "30", "--out", out, "--seed", "0",
        ])
        assert code == 0
        ids = np.load(out)
        assert ids.size == 30
        assert "selected 30 of 300" in capsys.readouterr().out

    def test_select_with_bounding_and_report(self, tmp_path, capsys):
        out = str(tmp_path / "ids.npy")
        rep = str(tmp_path / "rep.json")
        code = main([
            "select", "--preset", "cifar100_tiny", "--n-points", "300",
            "--fraction", "0.1", "--bounding", "approximate",
            "--sampling-fraction", "0.3", "--machines", "4", "--rounds", "4",
            "--adaptive", "--out", out, "--report", rep,
        ])
        assert code == 0
        assert np.load(out).size == 30
        assert os.path.exists(rep)
        assert "bounding:" in capsys.readouterr().out

    @pytest.mark.parametrize("flags,knn", [
        (["--knn-method", "ann"], {"knn_method": "ann"}),
        (["--knn-k", "5"], {"knn_k": 5}),
    ], ids=["knn-method-ann", "knn-k-5"])
    def test_preset_builds_the_flagged_graph(self, flags, knn, capsys):
        """``--preset`` builds its graph with ``--knn-k`` and
        ``--knn-method``: the printed objective is the selection on the
        flagged graph, not on the default one."""

        def objective(**graph_args):
            data = load_dataset(
                "cifar100_tiny", n_points=300, seed=0, **graph_args
            )
            problem = SubsetProblem.with_alpha(data.utilities, data.graph, 0.9)
            report = DistributedSelector(problem, SelectorConfig()).select(
                30, seed=0
            )
            return f"objective {report.objective:.6f}"

        code = main([
            "select", "--preset", "cifar100_tiny", "--n-points", "300",
            "--k", "30", *flags,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert objective(**knn) in out
        assert objective() not in out

    @pytest.mark.parametrize("source", ["preset", "embeddings"])
    def test_ann_graph_is_built_on_the_engine_flags(
        self, ds, tmp_path, monkeypatch, source
    ):
        """``--knn-method ann`` builds its graph on the command's engine
        options, not on the defaults."""
        from repro.dataflow import EngineOptions, knn_beam

        seen = []
        build = knn_beam.beam_knn_graph

        def recording(*args, **kwargs):
            context = kwargs.get("context")
            seen.append(
                kwargs.get("options") if context is None else context.options
            )
            return build(*args, **kwargs)

        monkeypatch.setattr(knn_beam, "beam_knn_graph", recording)
        if source == "preset":
            data = ["--preset", "cifar100_tiny", "--n-points", "200"]
        else:
            emb = str(tmp_path / "x.npy")
            np.save(emb, ds.embeddings)
            data = ["--embeddings", emb, "--knn-k", "5"]
        code = main([
            "select", *data, "--k", "20", "--knn-method", "ann",
            "--no-optimize", "--num-shards", "3",
        ])
        assert code == 0
        assert seen == [EngineOptions(optimize=False, num_shards=3)]

    def test_ann_select_spawns_one_cluster(self, monkeypatch, capsys):
        """``select --knn-method ann --executor remote`` opens one engine
        context: the graph build and the drive share one worker cluster,
        and select the same points as the sequential backend."""
        from repro.dataflow.remote.cluster import LocalCluster

        spawns = []
        init = LocalCluster.__init__

        def counting(self, *args, **kwargs):
            spawns.append(args)
            init(self, *args, **kwargs)

        def selected(*flags):
            code = main([
                "select", "--preset", "cifar100_tiny", "--n-points", "300",
                "--k", "30", "--knn-method", "ann", "--engine", "dataflow",
                "--num-shards", "4", *flags,
            ])
            assert code == 0
            (line,) = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("selected ")
            ]
            return line

        monkeypatch.setattr(LocalCluster, "__init__", counting)
        remote = selected("--executor", "remote")
        assert len(spawns) == 1
        assert remote == selected("--executor", "sequential")

    def test_select_from_npy_files(self, ds, tmp_path, capsys):
        emb = str(tmp_path / "x.npy")
        lab = str(tmp_path / "y.npy")
        np.save(emb, ds.embeddings)
        np.save(lab, ds.labels)
        code = main([
            "select", "--embeddings", emb, "--labels", lab,
            "--k", "20", "--knn-k", "5",
        ])
        assert code == 0
        assert "selected 20" in capsys.readouterr().out

    def test_score(self, tmp_path, capsys):
        ids = str(tmp_path / "ids.npy")
        np.save(ids, np.arange(25))
        code = main([
            "score", "--preset", "cifar100_tiny", "--n-points", "300",
            "--subset", ids,
        ])
        assert code == 0
        assert "f(S) =" in capsys.readouterr().out

    def test_info(self, capsys):
        code = main(["info", "--preset", "cifar100_tiny", "--n-points", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "points: 300" in out
        assert "monotone certificate" in out

    def test_plan_prints_both_costed_plans(self, capsys):
        """``repro plan`` — the end-to-end caller of ``explain(costs=True)``
        — prints the kNN and the bounding plan, every stage costed once,
        and the bounding join reads all three inputs in place — inside
        the round's one write, since it moves nothing."""
        # --optimize: the join assertions are about the optimized plan,
        # whatever default the session runs under.
        code = main([
            "plan", "--preset", "cifar100_tiny", "--n-points", "200",
            "--optimize",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kNN build plan:" in out and "bounding round plan:" in out
        knn, bounding = out.split("bounding round plan:")

        def stage_lines(plan):
            return [
                line.strip() for line in plan.splitlines()
                if re.match(r"\s*S\d+: ", line)
            ]

        # The plans the beams drive: every source materialized at
        # creation, none a stage of its own.
        assert "[materialized source 'knn/source']" in knn
        assert len(stage_lines(knn)) == 4
        assert "[materialized source 'state/remaining']" in bounding
        assert "[materialized source 'state/solution']" in bounding
        assert len(stage_lines(bounding)) == 2
        for line in stage_lines(out):
            assert len(re.findall(r"\[cost ~[\d.]+ms\]", line)) == 1, line
        (join,) = [
            line for line in bounding.splitlines()
            if "'bound/threeway_join'" in line
        ]
        # All three inputs read in place; the graph is its columnar
        # source, no pack stage in front of it.  The join moves nothing,
        # so it is no stage of its own: the round's one write runs it.
        assert join.count("[co-partitioned") == 3
        assert (
            "[materialized source 'source/neighbors'] [co-partitioned]"
        ) in join
        assert "bound/pack" not in out
        assert join.strip().startswith(
            "S1: cogroup-write #2 cogroup 'bound/bounds_join' [fused: "
            "cogroup 'bound/threeway_join' + flat_map 'bound/invert']"
        )
        assert bounding.count("cogroup-write") == 1
        assert "cogroup-read cogroup 'bound/threeway_join'" not in out

    def test_plan_output_is_pinned_byte_for_byte(self, capsys):
        """``repro plan --preset cifar100_tiny --n-points 200`` renders
        what the beams run, and a refactor must not change it.  The
        golden is that command's stdout: the kNN block as captured
        before the engine options lost ``stream_source`` & co., the
        bounding block re-captured when its remaining-set source became
        an eager column (no stream stage; its cost note now counts the
        source's rows, not a chunk-size guess) and again when the bounds
        join came to list ``source/utilities`` first (its edge write is
        input ``#2``); ``--optimize`` only keeps
        it under a session run with ``--no-optimize`` (the default plan
        is the optimized one)."""
        code = main([
            "plan", "--preset", "cifar100_tiny", "--n-points", "200",
            "--optimize",
        ])
        assert code == 0
        assert capsys.readouterr().out == "\n".join(PLAN_GOLDEN) + "\n"

    @pytest.mark.parametrize("flags, knob", [
        (["--num-shards", "0"], "num_shards"),
        (["--workers", "h:1"], "workers"),
        (["--engine-options", "removed.json"], "stream_source"),
        (["--engine-options", "missing.json"], "missing.json"),
    ])
    @pytest.mark.parametrize("command", ["select", "plan", "watch"])
    def test_bad_engine_options_are_a_usage_error(
        self, command, flags, knob, tmp_path, monkeypatch, capsys
    ):
        """Resolved once, before any dataset loads: exit 2 with one
        ``error:`` line naming the knob (or the file), no traceback."""
        import repro.cli

        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset loaded before the options")

        monkeypatch.setattr(repro.cli, "load_dataset", no_dataset)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "removed.json").write_text('{"stream_source": true}')
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "cifar100_tiny", "--n-points", "100",
                  *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err and knob in err

    @pytest.mark.parametrize("flags", [
        ["--alpha", "1.5"],
        ["--alpha", "-0.1"],
        ["--alpha", "nan"],
        ["--alpha", "0", "--bounding", "exact"],
        ["--alpha", "0", "--bounding", "approximate"],
    ])
    def test_forbidden_alpha_is_a_usage_error(self, flags, capsys):
        """Rejected by argparse before any dataset loads: exit 2 with one
        ``error:`` line, no traceback."""
        with pytest.raises(SystemExit) as exc:
            main(["select", "--preset", "cifar100_tiny", "--n-points", "100",
                  "--k", "5", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err and "alpha" in err

    def test_alpha_zero_without_bounding_runs(self, capsys):
        code = main(["select", "--preset", "cifar100_tiny", "--n-points",
                     "100", "--k", "5", "--alpha", "0"])
        assert code == 0
        assert "selected 5 of 100" in capsys.readouterr().out

    def test_missing_source_errors(self):
        with pytest.raises(SystemExit):
            main(["select", "--k", "10"])

    def test_default_uniform_utilities(self, ds, tmp_path, capsys):
        emb = str(tmp_path / "x.npy")
        np.save(emb, ds.embeddings[:100])
        code = main(["select", "--embeddings", emb, "--k", "5", "--knn-k", "3"])
        assert code == 0

    def test_select_with_utilities_file(self, ds, tmp_path):
        """``--utilities`` feeds the .npy utilities into the objective: a
        point with all the utility and no rival is always picked."""
        emb, util, out = (
            str(tmp_path / name) for name in ("x.npy", "u.npy", "ids.npy")
        )
        np.save(emb, ds.embeddings[:100])
        utilities = np.zeros(100)
        utilities[37] = 1.0
        np.save(util, utilities)
        assert main([
            "select", "--embeddings", emb, "--utilities", util,
            "--k", "5", "--knn-k", "3", "--out", out,
        ]) == 0
        ids = np.load(out)
        assert ids.size == 5 and 37 in ids.tolist()

    def test_select_rejects_misaligned_utilities(self, ds, tmp_path):
        emb, util = str(tmp_path / "x.npy"), str(tmp_path / "u.npy")
        np.save(emb, ds.embeddings[:100])
        np.save(util, np.ones(99))
        with pytest.raises(ValueError, match="same number of points"):
            main([
                "select", "--embeddings", emb, "--utilities", util,
                "--k", "5", "--knn-k", "3",
            ])

    def test_select_report_flag_writes_versioned_json(self, tmp_path):
        path = str(tmp_path / "report.json")
        assert main([
            "select", "--preset", "cifar100_tiny", "--n-points", "200",
            "--k", "10", "--report", path,
        ]) == 0
        with open(path) as fh:
            data = json.load(fh)
        assert data["version"] == 1 and len(data["selected"]) == 10


def _flag_block(parser, options=None):
    """``{option strings: (dest, default, type, required, choices, action)}``
    of a parser's own flags (``options`` restricts to a few of them)."""
    return {
        tuple(action.option_strings): (
            action.dest, action.default, action.type, action.required,
            tuple(action.choices) if action.choices else None,
            type(action).__name__,
        )
        for action in parser._actions
        if action.option_strings and action.dest != "help"
        and (options is None or set(action.option_strings) & set(options))
    }


class TestOneDoorPerFlagFamily:
    """Each flag family has one declaration that every command attaches."""

    @pytest.fixture(scope="class")
    def commands(self):
        from repro.cli import build_parser

        (subparsers,) = build_parser()._subparsers._group_actions
        return subparsers.choices

    def test_both_service_spellings_take_the_same_flags(self, commands):
        """``python -m repro.service`` and ``repro serve``: same option
        strings, dests, defaults and types — compared action by action."""
        from repro.service.__main__ import build_parser as service_parser

        standalone = _flag_block(service_parser())
        assert standalone == _flag_block(commands["serve"])
        assert ("--result-max-age",) in standalone
        assert ("--result-max-bytes",) in standalone

    def test_select_and_submit_share_the_selector_block(self, commands):
        knobs = ["--bounding", "--sampler", "--sampling-fraction",
                 "--machines", "--rounds", "--adaptive", "--gamma",
                 "--engine", "--incremental", "--dataset-version"]
        select = _flag_block(commands["select"], knobs)
        submit = _flag_block(commands["submit"], knobs)
        assert len(select) == len(knobs)
        # The engine default is the one per-command difference.
        assert select.pop(("--engine",))[1] == "memory"
        assert submit.pop(("--engine",))[1] == "dataflow"
        assert select == submit
        # Defaults are SelectorConfig's own.
        defaults = SelectorConfig()
        assert select[("--gamma",)][1] == defaults.gamma
        assert select[("--machines",)][1] == defaults.machines

    def test_select_and_watch_share_the_delta_block(self, commands):
        knobs = ["--data-shards", "--delta-frac"]
        select = _flag_block(commands["select"], knobs)
        assert len(select) == 2
        assert select == _flag_block(commands["watch"], knobs)

    def test_invalid_selector_flags_fail_in_selector_config(self):
        """Flags argparse cannot range-check land in the one validator."""
        with pytest.raises(ValueError, match="sampling_fraction"):
            main(["select", "--preset", "cifar100_tiny", "--n-points", "100",
                  "--k", "5", "--bounding", "approximate",
                  "--sampling-fraction", "7"])
        with pytest.raises(ValueError, match="machines"):
            main(["select", "--preset", "cifar100_tiny", "--n-points", "100",
                  "--k", "5", "--machines", "0"])


#: ``repro plan --preset cifar100_tiny --n-points 200``, line by line.
PLAN_GOLDEN = (
    'kNN build plan:',
    'plan (optimize=on, shards=8)',
    "[composite 'ShardedKnn']",
    "  S1: shuffle-write group 'knn/group' [fused: flat_map 'knn/assign'] [vectorized] (elided reshard 'knn/assign_key') <- [materialized source 'knn/source'] [cost ~0.31ms]",
    "  S2: group-read group 'knn/group' <- S1 [cost ~0.33ms]",
    "  S3: combine-write combine_per_key 'knn/merge' (lifted from group 'knn/merge_group') [vectorized fold] [fused: flat_map 'knn/cell_knn'] [vectorized] (elided reshard 'knn/cand_key') <- S2 [cost ~0.31ms]",
    "  S4: combine-read combine_per_key 'knn/merge' [vectorized fold] <- S3 [cost ~0.23ms]",
    'result <- S4',
    '',
    'bounding round plan:',
    'plan (optimize=on, shards=8)',
    "[composite 'BoundingFilter']",
    "  S1: cogroup-write #2 cogroup 'bound/bounds_join' [fused: cogroup 'bound/threeway_join' + flat_map 'bound/invert'] [vectorized] (elided reshard 'bound/invert_key') <- [materialized source 'source/neighbors'] [co-partitioned], [materialized source 'state/solution'] [co-partitioned], [materialized source 'state/remaining'] [co-partitioned] [cost ~0.54ms]",
    "  S2: cogroup-read cogroup 'bound/bounds_join' + filter 'bound/bounded' + map_keyed_values 'bound/reduce' [post-shuffle fused] [vectorized] <- [materialized source 'source/utilities'] [co-partitioned], [materialized source 'state/remaining'] [co-partitioned], S1 [cost ~0.54ms]",
    'result <- S2',
)
