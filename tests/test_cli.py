import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from topofuse import cli, dataio, downstream, network, objective, preprocess, topology, worker
from topofuse.errors import NonFiniteLoss, StaleCache, TopofuseError


def _manifest(out):
    with open(os.path.join(out, "manifest.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One small synth dataset pushed through every subcommand in process."""
    root = tmp_path_factory.mktemp("cli")
    p = {name: str(root / name) for name in (
        "data", "pre", "train", "clus", "mark", "traj", "eval", "vis", "dec", "rep"
    )}
    base = ["--threads", "1"]
    steps = [
        ["synth", "--out", p["data"], "--spots-per-domain", "6", "--genes", "24",
         "--mor-dims", "4", "--seed", "5"],
        ["preprocess", "--out", p["pre"], "--data", p["data"], "--set", "tau=1"],
        ["train", "--out", p["train"], "--data", p["data"],
         "--set", "epochs=5", "--set", "d_emb=6", "--set", "tau=1"],
    ]
    for argv in steps:
        assert cli.run(argv + base) == 0
    emb = os.path.join(p["train"], "embedding.csv")
    ckpt = os.path.join(p["train"], "ckpt.npz")
    assert cli.run(["cluster", "--out", p["clus"], "--data", p["data"], "--emb", emb] + base) == 0
    labels = os.path.join(p["clus"], "labels.csv")
    rest = [
        ["markers", "--out", p["mark"], "--data", p["data"], "--labels", labels,
         "--ckpt", ckpt, "--set", "tau=1", "--top-n", "3"],
        ["trajectory", "--out", p["traj"], "--emb", emb, "--labels", labels, "--paga-k", "5"],
        ["evaluate", "--out", p["eval"], "--data", p["data"], "--emb", emb,
         "--labels", labels, "--set", "tau=1"],
        ["visualize", "--out", p["vis"], "--emb", emb, "--labels", labels],
        ["deconvolve", "--out", p["dec"], "--emb", emb, "--labels", labels, "--l1", "0.05"],
        ["report", "--out", p["rep"], "--data", p["data"],
         "--set", "epochs=5", "--set", "d_emb=6", "--set", "tau=1", "--top-n", "3"],
    ]
    for argv in rest:
        assert cli.run(argv + base) == 0
    p["emb"], p["ckpt"], p["labels"] = emb, ckpt, labels
    return p


class TestPipelineOutputs:
    def test_synth_files_and_manifest(self, pipeline):
        names = sorted(os.listdir(pipeline["data"]))
        assert names == [
            "coords.csv", "labels.csv", "manifest.json", "mor.csv",
            "tra.csv", "truth_mor.csv", "truth_tra.csv",
        ]
        m = _manifest(pipeline["data"])
        assert set(m) == {
            "artifact", "version", "command", "argv", "inputs", "out",
            "threads", "config", "synth_spec",
        }
        assert m["artifact"] == "topofuse"
        assert m["version"] == cli.VERSION
        assert m["command"] == "synth"
        assert m["config"] is None
        assert m["inputs"] == {}
        assert "--seed" in m["argv"]

    def test_preprocess_outputs(self, pipeline):
        assert os.path.isfile(os.path.join(pipeline["pre"], "pre_tra.csv"))
        assert os.path.isfile(os.path.join(pipeline["pre"], "pre_mor.csv"))
        m = _manifest(pipeline["pre"])
        assert m["config"]["tau"] == 1
        assert m["inputs"]["data"] == pipeline["data"]

    def test_train_outputs(self, pipeline):
        for name in ("embedding.csv", "y_tra.csv", "y_mor.csv", "ckpt.npz", "losses.csv"):
            assert os.path.isfile(os.path.join(pipeline["train"], name))
        with open(os.path.join(pipeline["train"], "losses.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "epoch,l_topo_tra,l_topo_mor,l_recon,total"
        assert len(lines) == 6
        m = _manifest(pipeline["train"])
        assert m["config"]["epochs"] == 5
        assert "notes" not in m
        assert "epsilon_used" in m and "isolated_nodes" in m

    def test_cluster_covers_every_spot(self, pipeline):
        with open(pipeline["labels"]) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "spot_id,label"
        assert len(lines) == 25
        assert all(line.split(",")[0].startswith("s") for line in lines[1:])
        # domain count comes from the annotated labels when not pinned
        assert _manifest(pipeline["clus"])["n_clusters"] == 4

    def test_cluster_respects_explicit_k(self, pipeline, tmp_path):
        out = str(tmp_path / "clus3")
        rc = cli.run([
            "cluster", "--out", out, "--data", pipeline["data"], "--emb", pipeline["emb"],
            "--set", "n_clusters=3", "--threads", "1",
        ])
        assert rc == 0
        assert _manifest(out)["n_clusters"] == 3
        with open(os.path.join(out, "labels.csv")) as fh:
            labels = {int(line.split(",")[1]) for line in fh.read().strip().splitlines()[1:]}
        assert labels <= {0, 1, 2}

    def test_marker_table_csv(self, pipeline):
        with open(os.path.join(pipeline["mark"], "markers.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "cluster,rank,gene_id,importance"
        rows = [line.split(",") for line in lines[1:]]
        clusters = {row[0] for row in rows}
        assert len(rows) == 3 * len(clusters)
        assert all(row[2].startswith("g") for row in rows)

    def test_trajectory_edge_schema(self, pipeline):
        with open(os.path.join(pipeline["traj"], "paga.json")) as fh:
            paga = json.load(fh)
        assert set(paga) == {"cluster_ids", "edges"}
        n = len(paga["cluster_ids"])
        assert len(paga["edges"]) == n * (n - 1) // 2
        for edge in paga["edges"]:
            assert set(edge) == {"c", "d", "connectivity"}
            assert 0.0 <= edge["connectivity"] <= 1.0

    def test_evaluate_metrics(self, pipeline):
        with open(os.path.join(pipeline["eval"], "metrics.json")) as fh:
            metrics = json.load(fh)
        assert set(metrics) == {"mrre", "ari"}
        assert -1.0 <= metrics["ari"] <= 1.0
        assert metrics["mrre"] >= 0.0

    def test_visualize_outputs(self, pipeline):
        with open(os.path.join(pipeline["vis"], "vis.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "spot_id,v0,v1"
        assert len(lines) == 25
        with open(os.path.join(pipeline["vis"], "vis.svg")) as fh:
            assert "<svg" in fh.read()

    def test_deconvolve_outputs(self, pipeline):
        with open(os.path.join(pipeline["dec"], "deconvolution.csv")) as fh:
            header = fh.readline().strip()
        assert header.startswith("spot_id,w_")
        assert header.endswith(",weight_dispersion")
        m = _manifest(pipeline["dec"])
        assert m["l1"] == 0.05
        assert isinstance(m["converged"], bool)

    def test_report_bundle(self, pipeline):
        names = set(os.listdir(pipeline["rep"]))
        assert {
            "embedding.csv", "labels.csv", "vis.csv", "markers.csv",
            "deconvolution.csv", "contributions.csv", "report.json",
            "domains.svg", "vis.svg", "ckpt.npz", "manifest.json",
        } <= names
        with open(os.path.join(pipeline["rep"], "report.json")) as fh:
            report = json.load(fh)
        assert "metrics" in report and "notes" in report
        assert report["notes"]["n_clusters"] == 4

    def test_train_is_deterministic_at_the_file_level(self, pipeline, tmp_path):
        out = str(tmp_path / "train2")
        rc = cli.run([
            "train", "--out", out, "--data", pipeline["data"],
            "--set", "epochs=5", "--set", "d_emb=6", "--set", "tau=1", "--threads", "1",
        ])
        assert rc == 0
        for name in ("embedding.csv", "ckpt.npz"):
            assert _read(os.path.join(out, name)) == _read(os.path.join(pipeline["train"], name)), name


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rewrite_rows(src, dst, tamper):
    """Copy a spot CSV with its data rows in a fixed random order.

    `tamper` "missing" drops the first row of the new order, "extra" appends a
    row for the foreign id x9999; returns the id dropped or added.
    """
    with open(src, "r", encoding="utf-8", newline="") as fh:
        header, *body = list(csv.reader(fh))
    body = [body[i] for i in np.random.default_rng(7).permutation(len(body))]
    touched = None
    if tamper == "missing":
        touched = body.pop(0)[0]
    elif tamper == "extra":
        touched = "x9999"
        body.append([touched] + body[0][1:])
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header] + body)
    return touched


# command argv (with {data}/{emb}/{labels}/{ckpt} slots), the inputs joined
# to a reference by spot_id (and so shuffled), and the outputs compared.
# Commands without --data take the embedding's rows as the reference.
_JOINS = {
    "evaluate": (
        ["evaluate", "--data", "{data}", "--emb", "{emb}", "--labels", "{labels}", "--set", "tau=1"],
        ("emb", "labels"),
        ("metrics.json",),
    ),
    "trajectory": (
        ["trajectory", "--emb", "{emb}", "--labels", "{labels}", "--paga-k", "5"],
        ("labels",),
        ("paga.json",),
    ),
    "markers": (
        ["markers", "--data", "{data}", "--labels", "{labels}", "--ckpt", "{ckpt}",
         "--set", "tau=1", "--top-n", "3"],
        ("labels",),
        ("markers.csv",),
    ),
    "deconvolve": (
        ["deconvolve", "--emb", "{emb}", "--labels", "{labels}", "--l1", "0.05"],
        ("labels",),
        ("deconvolution.csv",),
    ),
    "visualize": (
        ["visualize", "--emb", "{emb}", "--labels", "{labels}"],
        ("labels",),
        ("vis.csv", "vis.svg"),
    ),
    "cluster-refine": (
        ["cluster", "--data", "{data}", "--emb", "{emb}", "--set", "refine=true"],
        ("emb",),
        ("labels.csv",),
    ),
}


def _run_join(pipeline, case, out, files):
    argv, _, _ = _JOINS[case]
    slots = {"data": pipeline["data"], "ckpt": pipeline["ckpt"], **files}
    return cli.run([a.format(**slots) for a in argv] + ["--out", out, "--threads", "1"])


class TestJoinBySpotId:
    @pytest.mark.parametrize("case", sorted(_JOINS))
    def test_shuffled_rows_give_the_same_output(self, pipeline, tmp_path, case):
        _, joined, outputs = _JOINS[case]
        files = {"emb": pipeline["emb"], "labels": pipeline["labels"]}
        assert _run_join(pipeline, case, str(tmp_path / "in_order"), files) == 0
        for key in joined:
            files[key] = str(tmp_path / f"shuffled_{key}.csv")
            _rewrite_rows(pipeline[key], files[key], None)
        assert _read(files[joined[-1]]) != _read(pipeline[joined[-1]])
        assert _run_join(pipeline, case, str(tmp_path / "shuffled"), files) == 0
        for name in outputs:
            assert _read(tmp_path / "shuffled" / name) == _read(tmp_path / "in_order" / name), name

    @pytest.mark.parametrize("tamper", ["missing", "extra"])
    @pytest.mark.parametrize("case", sorted(_JOINS))
    def test_id_mismatch_names_the_file(self, pipeline, tmp_path, capsys, case, tamper):
        key = _JOINS[case][1][-1]
        files = {"emb": pipeline["emb"], "labels": pipeline["labels"]}
        files[key] = str(tmp_path / f"{tamper}_{key}.csv")
        sid = _rewrite_rows(pipeline[key], files[key], tamper)
        capsys.readouterr()
        assert _run_join(pipeline, case, str(tmp_path / "out"), files) == 1
        err = capsys.readouterr().err
        assert files[key] in err and repr(sid) in err


class TestEvaluateWithoutTruth:
    """`evaluate --labels` on data without its own labels.csv: ARI needs the truth."""

    def _run(self, pipeline, tmp_path, labels):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        os.remove(data / "labels.csv")
        argv = ["evaluate", "--data", str(data), "--emb", pipeline["emb"], "--labels", labels, "--set", "tau=1"]
        return cli.run(argv + ["--out", str(tmp_path / "out"), "--threads", "1"])

    def test_valid_labels_give_mrre_only(self, pipeline, tmp_path):
        assert self._run(pipeline, tmp_path, pipeline["labels"]) == 0
        with open(tmp_path / "out" / "metrics.json") as fh:
            assert set(json.load(fh)) == {"mrre"}

    def test_missing_labels_file_exits_1(self, pipeline, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert self._run(pipeline, tmp_path, missing) == 1
        assert missing in capsys.readouterr().err

    def test_labels_with_an_extra_id_exit_1(self, pipeline, tmp_path, capsys):
        extra = str(tmp_path / "extra_labels.csv")
        sid = _rewrite_rows(pipeline["labels"], extra, "extra")
        assert self._run(pipeline, tmp_path, extra) == 1
        err = capsys.readouterr().err
        assert extra in err and repr(sid) in err

    def test_an_id_over_the_csv_field_limit_exits_1(self, pipeline, tmp_path, capsys):
        long = tmp_path / "long_labels.csv"
        long.write_text("spot_id,label\n" + "a" * (csv.field_size_limit() + 1) + ",0\n")
        assert self._run(pipeline, tmp_path, str(long)) == 1
        err = capsys.readouterr().err
        assert f"topofuse: error: labels file {long} " in err and f"field limit ({csv.field_size_limit()})" in err


class TestReportMatchesSubcommands:
    def test_subcommands_reproduce_report_artifacts(self, pipeline, tmp_path):
        rep = pipeline["rep"]
        emb, labels, ckpt = (os.path.join(rep, n) for n in ("embedding.csv", "labels.csv", "ckpt.npz"))
        data = pipeline["data"]
        shared = ["--set", "epochs=5", "--set", "d_emb=6", "--set", "tau=1", "--threads", "1"]
        out = {name: str(tmp_path / name) for name in (
            "cluster", "visualize", "deconvolve", "markers", "trajectory", "evaluate"
        )}
        runs = [
            ["cluster", "--data", data, "--emb", emb],
            ["visualize", "--emb", emb, "--labels", labels],
            ["deconvolve", "--emb", emb, "--labels", labels],
            ["markers", "--data", data, "--labels", labels, "--ckpt", ckpt, "--top-n", "3"],
            ["trajectory", "--emb", emb, "--labels", labels],
            ["evaluate", "--data", data, "--emb", emb, "--labels", labels],
        ]
        for argv in runs:
            assert cli.run(argv + ["--out", out[argv[0]]] + shared) == 0
        for command, name in [
            ("cluster", "labels.csv"),
            ("visualize", "vis.csv"),
            ("visualize", "vis.svg"),
            ("deconvolve", "deconvolution.csv"),
            ("markers", "markers.csv"),
        ]:
            assert _read(os.path.join(out[command], name)) == _read(os.path.join(rep, name)), name
        with open(os.path.join(rep, "report.json")) as fh:
            report = json.load(fh)
        with open(os.path.join(out["trajectory"], "paga.json")) as fh:
            assert json.load(fh)["edges"] == report["paga_edges"]
        with open(os.path.join(out["evaluate"], "metrics.json")) as fh:
            assert json.load(fh) == report["metrics"]


# One cheap argv per subcommand, with {data}/{emb}/{labels}/{ckpt} slots.
_SMALL = ["--set", "epochs=5", "--set", "d_emb=6", "--set", "tau=1"]
_COMMANDS = {
    "synth": ["synth", "--spots-per-domain", "3", "--genes", "8"],
    "preprocess": ["preprocess", "--data", "{data}", "--set", "tau=1"],
    "train": ["train", "--data", "{data}"] + _SMALL,
    "cluster": ["cluster", "--data", "{data}", "--emb", "{emb}"],
    "visualize": ["visualize", "--emb", "{emb}", "--labels", "{labels}"],
    "deconvolve": ["deconvolve", "--emb", "{emb}", "--labels", "{labels}"],
    "markers": ["markers", "--data", "{data}", "--labels", "{labels}", "--ckpt", "{ckpt}", "--set", "tau=1"],
    "trajectory": ["trajectory", "--emb", "{emb}", "--labels", "{labels}", "--paga-k", "5"],
    "evaluate": ["evaluate", "--data", "{data}", "--emb", "{emb}", "--set", "tau=1"],
    "report": ["report", "--data", "{data}", "--top-n", "3"] + _SMALL,
}


class TestUnusableOutput:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_out_is_an_existing_file(self, pipeline, tmp_path, capsys, command):
        out = tmp_path / "afile"
        out.write_text("not a directory\n")
        slots = {key: pipeline[key] for key in ("data", "emb", "labels", "ckpt")}
        argv = [a.format(**slots) for a in _COMMANDS[command]]
        capsys.readouterr()
        assert cli.run(argv + ["--out", str(out), "--threads", "1"]) == 1
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_report_fails_before_training(self, pipeline, tmp_path, capsys, monkeypatch):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n")

        def no_training(*args, **kwargs):
            raise AssertionError("trained although --out is unusable")

        monkeypatch.setattr(objective, "train", no_training)
        out = str(blocker / "sub")
        capsys.readouterr()
        assert cli.run(["report", "--data", pipeline["data"], "--out", out, "--threads", "1"] + _SMALL) == 1
        err = capsys.readouterr().err
        assert out in err and str(blocker) in err
        assert blocker.read_text() == "not a directory\n"

    def test_artifact_path_is_a_directory(self, pipeline, tmp_path, capsys):
        out = tmp_path / "train"
        (out / "losses.csv").mkdir(parents=True)
        capsys.readouterr()
        rc = cli.run(["train", "--data", pipeline["data"], "--out", str(out), "--threads", "1"] + _SMALL)
        assert rc == 1
        assert str(out / "losses.csv") in capsys.readouterr().err

    def test_failed_command_removes_what_it_wrote(self, pipeline, tmp_path, capsys):
        out = tmp_path / "train"
        (out / "losses.csv").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")  # not written by the command
        assert cli.run(["train", "--data", pipeline["data"], "--out", str(out), "--threads", "1"] + _SMALL) == 1
        # embedding.csv, ckpt.npz and y_*.csv were written before losses.csv failed
        assert sorted(os.listdir(out)) == ["losses.csv", "notes.txt"]
        capsys.readouterr()
        emb = str(out / "embedding.csv")
        assert cli.run(["cluster", "--data", pipeline["data"], "--emb", emb, "--out", str(tmp_path / "c")]) == 1
        assert emb in capsys.readouterr().err

    def test_crash_removes_what_it_wrote(self, pipeline, tmp_path, monkeypatch):
        def crash(path, history):
            raise RuntimeError("crashed after the checkpoint")

        monkeypatch.setattr("topofuse.dataio.write_losses_csv", crash)
        out = tmp_path / "train"
        assert cli.run(["train", "--data", pipeline["data"], "--out", str(out), "--threads", "1"] + _SMALL) == 2
        assert os.listdir(out) == []


def _renamed_gene_data(pipeline, tmp_path):
    """A copy of the pipeline's dataset whose tra.csv header renames its fourth gene."""
    data = tmp_path / "renamed"
    shutil.copytree(pipeline["data"], data)
    header, body = (data / "tra.csv").read_text().split("\n", 1)
    names = header.split(",")
    old = names[4]
    names[4] = "renamed"
    (data / "tra.csv").write_text(",".join(names) + "\n" + body)
    return data, old


class TestForeignCheckpoint:
    def test_checkpoint_names_its_genes(self, pipeline):
        with open(os.path.join(pipeline["pre"], "pre_tra.csv")) as fh:
            kept = fh.readline().strip().split(",")[1:]
        for run in ("train", "rep"):
            assert network.load_checkpoint(os.path.join(pipeline[run], "ckpt.npz")).gene_ids == kept

    def test_markers_refuses_other_genes(self, pipeline, tmp_path, capsys):
        data, old = _renamed_gene_data(pipeline, tmp_path)
        capsys.readouterr()
        rc = cli.run([
            "markers", "--data", str(data), "--labels", pipeline["labels"], "--ckpt", pipeline["ckpt"],
            "--set", "tau=1", "--top-n", "3", "--out", str(tmp_path / "mark"), "--threads", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"is {old!r} in the model and 'renamed' in the data" in err
        assert not os.path.exists(tmp_path / "mark")

    def test_markers_refuses_a_json_checkpoint(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"format": "topofuse-ckpt-v1", "theta": 0.9, "tensors": {}}\n')
        capsys.readouterr()
        rc = cli.run([
            "markers", "--data", pipeline["data"], "--labels", pipeline["labels"], "--ckpt", str(ckpt),
            "--set", "tau=1", "--out", str(tmp_path / "mark"), "--threads", "1",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "retrain" in err

    def test_markers_refuses_another_radius(self, pipeline, tmp_path, capsys):
        """A model trained on a radius-3 graph is not ranked on the auto-radius graph."""
        train = tmp_path / "train"
        common = ["--data", pipeline["data"], "--set", "tau=1", "--threads", "1"]
        assert cli.run(["train", "--out", str(train), *common, "--set", "epochs=2", "--set", "epsilon_radius=3.0"]) == 0
        assert _manifest(str(train))["epsilon_used"] == 3.0
        ckpt = str(train / "ckpt.npz")
        assert network.load_checkpoint(ckpt).epsilon_used == 3.0
        markers = ["markers", "--labels", pipeline["labels"], "--ckpt", ckpt, *common]
        capsys.readouterr()
        assert cli.run([*markers, "--out", str(tmp_path / "mark")]) == 1
        err = capsys.readouterr().err
        auto = topology.auto_epsilon(cli._load_data(pipeline["data"]).coords)
        assert auto != 3.0
        assert f"radius 3.0, but this configuration gives radius {auto!r}" in err and ckpt in err
        assert not os.path.exists(tmp_path / "mark")
        assert cli.run([*markers, "--out", str(tmp_path / "mark3"), "--set", "epsilon_radius=3.0"]) == 0

    def test_denoise_refuses_other_genes(self, pipeline, tmp_path):
        data, old = _renamed_gene_data(pipeline, tmp_path)
        ds = cli._load_data(str(data))
        pre = preprocess.preprocess_dataset(ds, dataio.config_from_dict({"tau": 1}))
        graph = topology.build_spatial_graph(ds.coords, topology.auto_epsilon(ds.coords))
        params = network.load_checkpoint(pipeline["ckpt"])
        with pytest.raises(StaleCache, match=f"is {old!r} in the model and 'renamed' in the data"):
            downstream.denoise(params, pre, graph)
        params.gene_ids = None  # the same tensors, unnamed, would run
        assert downstream.denoise(params, pre, graph).shape == pre.tra.shape


class TestExitCodes:
    def test_version_and_help(self, capsys):
        assert cli.run(["--version"]) == 0
        assert "topofuse 0.1.0" in capsys.readouterr().out
        assert cli.run(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert cli.run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert cli.run(["synth", "--out", str(tmp_path / "x"), "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_report_with_a_radius_whose_square_overflows(self, pipeline, tmp_path):
        argv = ["report", "--data", pipeline["data"], "--out", str(tmp_path / "rep"), "--threads", "1"]
        shared = ["--set", "epochs=2", "--set", "d_emb=6", "--set", "tau=1", "--set", "epsilon_radius=1e300"]
        assert cli.run(argv + shared) == 0

    def test_unknown_config_key(self, pipeline, tmp_path, capsys):
        rc = cli.run([
            "train", "--out", str(tmp_path / "x"), "--data", pipeline["data"],
            "--set", "nope=3",
        ])
        assert rc == 1
        assert "nope" in capsys.readouterr().err

    def test_malformed_override(self, pipeline, tmp_path, capsys):
        rc = cli.run([
            "train", "--out", str(tmp_path / "x"), "--data", pipeline["data"],
            "--set", "epochs",
        ])
        assert rc == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path, capsys):
        rc = cli.run(["train", "--out", str(tmp_path / "x"), "--data", str(tmp_path / "none")])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "x")

    def test_data_csv_that_is_not_utf8(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        tra = data / "tra.csv"
        tra.write_bytes(b"\xff\xfe" + tra.read_bytes())  # a UTF-16 byte-order mark
        capsys.readouterr()
        assert cli.run(["train", "--out", str(tmp_path / "x"), "--data", str(data), "--threads", "1"] + _SMALL) == 1
        err = capsys.readouterr().err
        assert str(tra) in err and "UTF-8" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    def test_config_file_that_is_not_utf8(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"epochs": 5, "note": "\xff"}')
        capsys.readouterr()
        argv = ["train", "--out", str(tmp_path / "x"), "--data", pipeline["data"], "--config", str(config)]
        assert cli.run(argv + ["--threads", "1"]) == 1
        err = capsys.readouterr().err
        assert f"config {config} is not valid JSON" in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "x")

    def test_invalid_spec_value(self, tmp_path, capsys):
        rc = cli.run(["synth", "--out", str(tmp_path / "x"), "--domains", "0"])
        assert rc == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--seed", "-1", "seed"),
            ("--spacing", "nan", "spacing"),
            ("--noise-std", "inf", "noise_std"),
            ("--signal-tra", "nan", "signal_tra"),
            ("--signal-mor", "inf", "signal_mor"),
        ],
    )
    def test_synth_names_the_bad_number(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "x"
        capsys.readouterr()
        assert cli.run(["synth", "--out", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert f"topofuse: error: {field} must be " in err and "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--data", "{data}", "--top-n", "-2"],
            ["evaluate", "--data", "{data}", "--emb", "{emb}", "--mrre-k", "0"],
            ["trajectory", "--emb", "{emb}", "--labels", "{labels}", "--paga-k", "0"],
            ["cluster", "--data", "{data}", "--emb", "{emb}", "--restarts", "-1"],
        ],
        ids=["top-n", "mrre-k", "paga-k", "restarts"],
    )
    def test_counts_must_be_positive(self, pipeline, tmp_path, capsys, argv):
        out = tmp_path / "x"
        flag, value = argv[-2:]
        assert cli.run([a.format(**pipeline) for a in argv] + _SMALL + ["--out", str(out)]) == 1
        assert f"argument {flag}: expects a positive integer, got {value}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "source, value",
        [("data", "2.00001"), ("labels", "100000.5")],
        ids=["dataset", "labels-flag"],
    )
    def test_non_integer_labels(self, pipeline, tmp_path, capsys, source, value):
        # each value lies within numpy's default relative tolerance of an integer
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        path = data / "labels.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + first.split(",")[0] + f",{value}\n" + "".join(rest), encoding="utf-8")
        if source == "data":
            argv = ["preprocess", "--data", str(data), "--set", "tau=1"]
        else:
            argv = ["trajectory", "--emb", pipeline["emb"], "--labels", str(path)]
        assert cli.run(argv + ["--out", str(tmp_path / "x")]) == 1
        assert f"labels in {path} must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--data", "{missing}"],
            ["deconvolve", "--emb", "{missing}/embedding.csv", "--labels", "{missing}/labels.csv"],
        ],
        ids=["report", "deconvolve"],
    )
    def test_l1_must_be_a_finite_nonnegative_number(self, tmp_path, capsys, argv, value):
        # the inputs do not exist, so an exit that names --l1 came before any file was read
        out, missing = tmp_path / "x", str(tmp_path / "missing")
        assert cli.run([a.format(missing=missing) for a in argv] + ["--l1", value, "--out", str(out)]) == 1
        assert f"argument --l1: expects a finite number >= 0, got {value}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_threads_must_be_a_positive_integer(self, tmp_path, capsys, monkeypatch, value):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / "x"
        assert cli.run(["synth", "--out", str(out), "--threads", value]) == 1
        assert "argument --threads:" in capsys.readouterr().err
        assert not os.path.exists(out)
        assert not [var for var in cli._THREAD_VARS if var in os.environ]

    @pytest.mark.parametrize(
        "flag", [["--threads", "2"], ["--threads=2"], ["--thread", "2"]], ids=["split", "joined", "prefix"]
    )
    def test_threads_pin_every_blas_pool(self, tmp_path, monkeypatch, flag):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "unset")  # restored after the test
        missing = str(tmp_path / "missing")
        assert cli.run(["preprocess", "--data", missing, "--out", str(tmp_path / "x")] + flag) == 1
        assert {var: os.environ[var] for var in cli._THREAD_VARS} == dict.fromkeys(cli._THREAD_VARS, "2")

    def test_internal_crash_returns_2(self, tmp_path, capsys, monkeypatch):
        def boom(args, cfg):
            raise RuntimeError("handler exploded")

        monkeypatch.setitem(cli._HANDLERS, "synth", boom)
        assert cli.run(["synth", "--out", str(tmp_path / "x")]) == 2
        assert "handler exploded" in capsys.readouterr().err


class TestOverrideParsing:
    def test_json_values_and_strings(self):
        assert cli._parse_override("lr=0.01") == ("lr", 0.01)
        assert cli._parse_override("epochs=5") == ("epochs", 5)
        assert cli._parse_override("fusion_mode=concat") == ("fusion_mode", "concat")
        assert cli._parse_override("refine=false") == ("refine", False)

    def test_rejects_missing_separator(self):
        with pytest.raises(cli.CliError):
            cli._parse_override("epochs")
        with pytest.raises(cli.CliError):
            cli._parse_override("=3")

    def test_seed_flag_wins_over_config_file(self, pipeline, tmp_path):
        out = str(tmp_path / "seeded")
        rc = cli.run([
            "preprocess", "--out", out, "--data", pipeline["data"],
            "--set", "seed=1", "--seed", "99", "--set", "tau=1",
        ])
        assert rc == 0
        assert _manifest(out)["config"]["seed"] == 99

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_whole_float_integers_from_either_source(self, pipeline, tmp_path, source):
        out = str(tmp_path / source)
        argv = ["preprocess", "--out", out, "--data", pipeline["data"], "--set", "tau=1"]
        if source == "set":
            argv += ["--set", "epochs=2.0"]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"epochs": 2.0}))
            argv += ["--config", str(path)]
        assert cli.run(argv) == 0
        epochs = _manifest(out)["config"]["epochs"]
        assert epochs == 2 and isinstance(epochs, int)


_REPORT = ["report", "--top-n", "3", "--threads", "1"] + _SMALL


def test_report_imports_no_scipy(pipeline, tmp_path):
    # importing scipy.sparse alone costs a process about 22 MB and 166 ms
    argv = _REPORT + ["--data", pipeline["data"], "--out", str(tmp_path / "out")]
    code = (
        "import sys\n"
        "from topofuse import cli\n"
        f"assert cli.run({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
WATCHDOG_S = 60  # the `forked` fixture's, in conftest.py
# --threads 1 on two CPUs: report forks the epoch feeder, then one child for the visualization
_REPORT_CHILDREN = 2
# what report writes before it waits for its visualization child
_EARLY_OUTPUTS = ("labels.csv", "markers.csv", "deconvolution.csv", "domains.svg", "embedding.csv", "ckpt.npz")


@pytest.fixture
def workers(forked):
    """The pid of every child forked during the test, watched as conftest's `forked` fixture watches them."""
    return forked


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _listed_at_wait(monkeypatch, out):
    """The names in `out` each time report starts waiting for a child's result."""
    listed, result = [], worker.Fork.result

    def list_then_wait(job):
        if job._child:  # a Fork that runs inline is not waited for
            listed.append(sorted(os.listdir(out)))
        return result(job)

    monkeypatch.setattr(worker.Fork, "result", list_then_wait)
    return listed


def _visualization_fails(monkeypatch):
    """report's visualization raises OutOfRange on one spot instead of running."""
    monkeypatch.setattr(downstream, "_fit_vis", lambda z, cfg: topology.auto_epsilon([[0.0, 0.0]]))


def _block_visualization(monkeypatch):
    """report's visualization sleeps past the watchdog instead of running."""
    monkeypatch.setattr(downstream, "_fit_vis", lambda z, cfg: time.sleep(2 * WATCHDOG_S))


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# what visualize and markers write
_STANDALONE_OUTPUTS = {"visualize": ("vis.csv", "vis.svg"), "markers": ("markers.csv",)}


def _standalone(pipeline, command, out):
    """argv of `pipeline`'s visualize or markers run at --threads 1, writing to `out`."""
    common = ["--threads", "1", "--labels", pipeline["labels"], "--out", str(out)]
    if command == "visualize":
        return ["visualize", "--emb", pipeline["emb"], *common]
    return ["markers", "--data", pipeline["data"], "--ckpt", pipeline["ckpt"], "--set", "tau=1", "--top-n", "3", *common]


class TestAnalysisWorker:
    @pytest.mark.parametrize("drop", [None, "labels.csv", "mor.csv"])
    def test_both_paths_write_the_same_bytes(self, pipeline, tmp_path, monkeypatch, workers, drop):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        if drop:
            os.remove(data / drop)
        outs = {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert cli.run(_REPORT + ["--data", str(data), "--out", str(outs[cpus])]) == 0
            # --threads 1: one CPU runs inline, two fork the epoch feeder and the visualization's child
            assert len(workers) == (cpus - 1) * _REPORT_CHILDREN
        _assert_reaped(workers)
        names = sorted(os.listdir(outs[1]))
        assert names == sorted(os.listdir(outs[2]))
        assert ("contributions.csv" in names) == (drop != "mor.csv")
        for name in names:
            if name != "manifest.json":
                assert _read(outs[1] / name) == _read(outs[2] / name), name
        inline, remote = _manifest(outs[1]), _manifest(outs[2])
        assert {key for key in inline if inline[key] != remote[key]} == {"out", "argv"}

    def test_train_forks_the_epoch_feeder_when_two_processes_fit(self, pipeline, tmp_path, monkeypatch, workers):
        outs = {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            argv = ["train", "--threads", "1", "--data", pipeline["data"], "--out", str(outs[cpus])]
            assert cli.run(argv + _SMALL) == 0
            assert len(workers) == cpus - 1
        _assert_reaped(workers)
        names = sorted(os.listdir(outs[1]))
        assert names == sorted(os.listdir(outs[2]))
        for name in names:
            if name != "manifest.json":
                assert _read(outs[1] / name) == _read(outs[2] / name), name

    @pytest.mark.parametrize("command", ["visualize", "markers"])
    def test_visualize_and_markers_fork_one_child_when_two_processes_fit(
        self, pipeline, tmp_path, monkeypatch, workers, command
    ):
        outs = {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert cli.run(_standalone(pipeline, command, outs[cpus])) == 0
            # visualize's epoch feeder, or the child that computes half of markers' knockouts
            assert len(workers) == cpus - 1
        _assert_reaped(workers)
        for name in _STANDALONE_OUTPUTS[command]:
            assert _read(outs[1] / name) == _read(outs[2] / name), name

    def test_failed_visualization_draw_exits_1_with_its_message(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        draws, vis_pairs = [], downstream._vis_pairs

        def fail_from_the_second(graph, rng):
            draws.append(graph)
            if len(draws) > 1:  # the feeder's: the first draw is made before the fork
                topology.auto_epsilon([[0.0, 0.0]])
            return vis_pairs(graph, rng)

        monkeypatch.setattr(downstream, "_vis_pairs", fail_from_the_second)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.run(_standalone(pipeline, "visualize", out)) == 1
        with pytest.raises(TopofuseError) as expected:
            topology.auto_epsilon([[0.0, 0.0]])
        assert f"topofuse: error: {expected.value}\n" in capsys.readouterr().err
        assert len(draws) == 1 and not os.path.exists(out / "vis.csv")
        assert len(workers) == 1
        _assert_reaped(workers)

    def test_failed_knockout_exits_1_with_its_message(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        parent, fuse = os.getpid(), downstream.fuse_forward

        def fail_in_the_child(*args):
            if os.getpid() != parent:
                topology.auto_epsilon([[0.0, 0.0]])
            return fuse(*args)

        monkeypatch.setattr(downstream, "fuse_forward", fail_in_the_child)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        out = tmp_path / "out"
        assert cli.run(_standalone(pipeline, "markers", out)) == 1
        with pytest.raises(TopofuseError) as expected:
            topology.auto_epsilon([[0.0, 0.0]])
        assert f"topofuse: error: {expected.value}\n" in capsys.readouterr().err
        assert not os.path.exists(out / "markers.csv")
        assert len(workers) == 1
        _assert_reaped(workers)

    def test_threads_default_to_one(self, pipeline, tmp_path, monkeypatch, workers):
        for var in cli._THREAD_VARS:
            monkeypatch.setenv(var, "unset")  # restored after the test
        _cpus(monkeypatch, 2)
        argv = ["report", "--top-n", "3", "--data", pipeline["data"]] + _SMALL
        default, pinned = tmp_path / "default", tmp_path / "pinned"
        assert cli.run(argv + ["--out", str(default)]) == 0
        # as with --threads 1 on two CPUs: the epoch feeder, then the visualization's child
        assert len(workers) == _REPORT_CHILDREN
        assert {var: os.environ[var] for var in cli._THREAD_VARS} == dict.fromkeys(cli._THREAD_VARS, "1")
        assert cli.run(argv + ["--threads", "1", "--out", str(pinned)]) == 0
        _assert_reaped(workers)
        for name in ("embedding.csv", "report.json"):
            assert _read(default / name) == _read(pinned / name), name
        assert _manifest(default)["threads"] == 1

    def test_data_removed_after_reading_changes_nothing(self, pipeline, tmp_path, monkeypatch, workers):
        # only this process reads --data: the children get their inputs from its memory
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        outs = {cpus: tmp_path / f"cpus{cpus}" for cpus in (1, 2)}
        _cpus(monkeypatch, 1)
        assert cli.run(_REPORT + ["--data", str(data), "--out", str(outs[1])]) == 0
        load = cli._load_data

        def load_then_remove(d):
            ds = load(d)
            shutil.rmtree(d)
            return ds

        monkeypatch.setattr(cli, "_load_data", load_then_remove)
        _cpus(monkeypatch, 2)
        assert cli.run(_REPORT + ["--data", str(data), "--out", str(outs[2])]) == 0
        assert not data.exists() and len(workers) == _REPORT_CHILDREN
        _assert_reaped(workers)
        names = sorted(os.listdir(outs[1]))
        assert names == sorted(os.listdir(outs[2]))
        for name in names:
            if name != "manifest.json":
                assert _read(outs[1] / name) == _read(outs[2] / name), name

    def test_worker_error_exits_1_with_its_message(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        _visualization_fails(monkeypatch)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        assert cli.run(_REPORT + ["--data", pipeline["data"], "--out", str(tmp_path / "out")]) == 1
        with pytest.raises(TopofuseError) as expected:
            topology.auto_epsilon([[0.0, 0.0]])
        assert f"topofuse: error: {expected.value}\n" in capsys.readouterr().err
        assert [name for name in (*_EARLY_OUTPUTS, "report.json") if os.path.exists(tmp_path / "out" / name)] == []
        assert len(workers) == _REPORT_CHILDREN
        _assert_reaped(workers)

    def test_failed_visualization_removes_the_early_outputs(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        _visualization_fails(monkeypatch)
        out = tmp_path / "out"
        listed = _listed_at_wait(monkeypatch, out)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        assert cli.run(_REPORT + ["--data", pipeline["data"], "--out", str(out)]) == 1
        assert "topofuse: error: " in capsys.readouterr().err
        assert listed == [sorted(_EARLY_OUTPUTS)]  # written before the wait, and nothing else
        assert os.listdir(out) == []
        _assert_reaped(workers)

    @pytest.mark.parametrize("drop", [None, "labels.csv"])
    def test_report_forks_the_feeder_and_the_visualization(self, pipeline, tmp_path, monkeypatch, workers, drop):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        if drop:
            os.remove(data / drop)
        names, arities, init = [], [], worker.Fork.__init__

        def record(job, name, fn, *args):
            init(job, name, fn, *args)
            if job._child:
                names.append(name)
                arities.append(len(args))

        monkeypatch.setattr(worker.Fork, "__init__", record)
        _cpus(monkeypatch, 2)
        assert cli.run(_REPORT + ["--data", str(data), "--out", str(tmp_path / "out")]) == 0
        # the same two children with or without the dataset's labels: the contributions and
        # every knockout run here, as the child holds the spare CPU, and the child calls
        # _fit_vis(z, cfg), which draws inline
        assert names == ["visualization"] and arities == [2] and len(workers) == _REPORT_CHILDREN
        _assert_reaped(workers)

    def test_a_failure_after_training_stops_the_worker(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        def no_clusters(*args):
            raise NonFiniteLoss("clustering diverged")

        monkeypatch.setattr(cli, "_cluster", no_clusters)
        _block_visualization(monkeypatch)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        start = time.perf_counter()
        assert cli.run(_REPORT + ["--data", pipeline["data"], "--out", str(tmp_path / "out")]) == 1
        # the visualization was still running: its child was killed, not waited for
        assert time.perf_counter() - start < WATCHDOG_S / 4
        assert "topofuse: error: clustering diverged" in capsys.readouterr().err
        assert len(workers) == _REPORT_CHILDREN
        _assert_reaped(workers)

    def test_killed_worker_names_the_analysis(self, pipeline, tmp_path, monkeypatch, capsys, workers):
        cluster = cli._cluster

        def kill_worker_then_cluster(*args):
            os.kill(workers[-1], signal.SIGKILL)  # it blocks, so it cannot return first
            return cluster(*args)

        monkeypatch.setattr(cli, "_cluster", kill_worker_then_cluster)
        _block_visualization(monkeypatch)
        _cpus(monkeypatch, 2)
        capsys.readouterr()
        assert cli.run(_REPORT + ["--data", pipeline["data"], "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"the worker process was killed by signal {int(signal.SIGKILL)} before returning the visualization" in err
        assert not os.path.exists(tmp_path / "out" / "report.json")
        assert len(workers) == _REPORT_CHILDREN
        _assert_reaped(workers)
