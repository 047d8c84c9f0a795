import json

import numpy as np
import pytest

from microclust import Dataset, generate_synthetic, save_csv
from microclust.cli import main, parse_int_set, parse_k_range

BLOBS = "synth:blobs:120:noise=0.08:components=2:seed=1"


def _write_blobs_csv(tmp_path, n=120):
    ds = generate_synthetic("blobs", n, 0.08, 1, components=2)
    path = tmp_path / "blobs.csv"
    save_csv(ds, path)
    return path, ds


def test_parse_helpers():
    assert parse_k_range("2:5") == [2, 3, 4, 5]
    assert parse_k_range("7") == [7]
    assert parse_int_set("8,16") == [8, 16]


def test_cluster_writes_labels_and_metrics(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "cluster", "--input", BLOBS, "--algo", "mdmsc", "--clusters", "2",
            "--k", "8", "--runs", "2", "--seed", "0", "--out-dir", str(out),
            "--dump-micro",
        ]
    )
    assert code == 0
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "label"
    assert len(labels) == 121
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["ari"] == 1.0
    assert metrics["runs"] == 2
    micro = json.loads((out / "micro_clusters.json").read_text())
    assert sum(rec["size"] for rec in micro) == 120
    assert (out / "split_log.json").exists()
    sim_rows = (out / "similarity.csv").read_text().splitlines()
    assert len(sim_rows) == len(micro)  # dense m x m dump
    first = [float(v) for v in sim_rows[0].split(",")]
    assert len(first) == len(micro) and first[0] == 0.0


def test_cluster_metrics_json_validates_against_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources

    out = tmp_path / "out"
    assert main(
        ["cluster", "--input", BLOBS, "--clusters", "2", "--k", "8",
         "--runs", "1", "--out-dir", str(out)]
    ) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    schema = json.loads(
        resources.files("microclust").joinpath("schemas/metrics.schema.json").read_text()
    )
    jsonschema.validate(metrics, schema)


def test_cluster_csv_input_with_labels(tmp_path):
    path, ds = _write_blobs_csv(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["cluster", "--input", str(path), "--labels-col", "last", "--clusters", "2",
         "--k", "8", "--runs", "1", "--out-dir", str(out)]
    )
    assert code == 0
    assert (out / "metrics.json").exists()


def test_cluster_missing_input_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["cluster", "--input", "missing.csv", "--clusters", "2", "--out-dir", str(out)])
    assert code == 3
    assert "I/O error" in capsys.readouterr().err
    assert not (out / "labels.csv").exists()  # no partial outputs


def test_cluster_bad_synth_spec_config_error(capsys):
    code = main(["cluster", "--input", "synth:blobs", "--clusters", "2"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["sweep", "--input", BLOBS, "--k-range", "x"],
        ["sweep", "--input", BLOBS, "--beta-set", "8,x"],
        ["sweep", "--input", BLOBS, "--beta-set", ","],
        ["cluster", "--input", "synth:moons:100:noise=abc"],
    ],
    ids=["k-range-x", "beta-set-8-x", "beta-set-empty", "synth-noise-abc"],
)
def test_bad_numbers_are_config_errors(command, tmp_path, capsys):
    code = main([*command, "--clusters", "2", "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_bad_normalization_in_config_file_is_config_error(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nnormalization = bogus\n")
    out = tmp_path / "o"
    code = main(["cluster", "--input", "synth:blobs:60", "--config", str(ini), "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "bogus" in err
    assert not out.exists()


def test_cluster_numerical_error_exit_code(tmp_path, capsys):
    # k so large the leader graph collapses to fewer micro-clusters than C
    code = main(
        ["cluster", "--input", "synth:blobs:24:noise=0.01:components=2", "--clusters",
         "8", "--k", "23", "--beta", "64", "--runs", "1", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 4
    assert "numerical error" in capsys.readouterr().err


def test_config_file_with_cli_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nalgorithm = mdmsc\nk = 8\nn_clusters = 2\nruns = 1\nseed = 3\n"
        f"input = {BLOBS}\n"
    )
    out = tmp_path / "out"
    code = main(["cluster", "--config", str(ini), "--out-dir", str(out), "--seed", "5"])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["seed"] == 5  # flag overrides file


def test_labels_byte_identical_across_runs(tmp_path):
    outs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / tag
        assert main(
            ["cluster", "--input", BLOBS, "--clusters", "2", "--k", "8",
             "--runs", "1", "--seed", "7", "--out-dir", str(out)]
        ) == 0
        outs.append((out / "labels.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_sweep_blobs_reaches_perfect_acc(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["sweep", "--input", BLOBS, "--clusters", "2", "--k-range", "2:10",
         "--beta-set", "8", "--out-dir", str(out)]
    )
    assert code == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["rows"]) == 9  # |k_range| x |beta_set|
    assert sweep["best"]["acc"] == 1.0


def test_sweep_singleton_matches_cluster_eval(tmp_path):
    out = tmp_path / "out"
    assert main(
        ["sweep", "--input", BLOBS, "--clusters", "2", "--k-range", "8",
         "--beta-set", "8", "--seed", "0", "--out-dir", str(out)]
    ) == 0
    sweep = json.loads((out / "sweep.json").read_text())
    assert len(sweep["rows"]) == 1
    out2 = tmp_path / "out2"
    assert main(
        ["cluster", "--input", BLOBS, "--clusters", "2", "--k", "8", "--beta", "8",
         "--seed", "0", "--runs", "1", "--out-dir", str(out2)]
    ) == 0
    metrics = json.loads((out2 / "metrics.json").read_text())
    assert sweep["rows"][0]["ari"] == pytest.approx(metrics["ari"])


def test_sweep_requires_labels(tmp_path, capsys):
    ds = Dataset(np.random.default_rng(0).standard_normal((30, 2)))
    path = tmp_path / "plain.csv"
    save_csv(ds, path)
    code = main(
        ["sweep", "--input", str(path), "--clusters", "2", "--k-range", "2:3",
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2


def test_eval_subcommand(tmp_path):
    path, ds = _write_blobs_csv(tmp_path)
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n" + "\n".join(str(int(v)) for v in ds.labels) + "\n")
    out = tmp_path / "out"
    code = main(
        ["eval", "--pred", str(pred), "--input", str(path), "--labels-col", "last",
         "--out-dir", str(out)]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["ari"] == 1.0 and metrics["acc"] == 1.0


def test_eval_length_mismatch(tmp_path, capsys):
    path, _ = _write_blobs_csv(tmp_path)
    pred = tmp_path / "pred.csv"
    pred.write_text("label\n0\n1\n")
    code = main(
        ["eval", "--pred", str(pred), "--input", str(path), "--labels-col", "last",
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 3


def test_bench_report_shape(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["bench", "--datasets", f"{BLOBS},synth:two-spirals:120:noise=0", "--algos",
         "mdmsc,gbsc", "--runs", "1", "--k", "4", "--out-dir", str(out)]
    )
    assert code == 0
    bench = json.loads((out / "bench.json").read_text())
    ok_rows = [r for r in bench["rows"] if not r["failed"]]
    assert len(ok_rows) == 4  # 2 datasets x 2 algorithms
    for row in ok_rows:
        assert {"construction", "splitting", "similarity", "spectral"} <= set(row["stage_ms"])
        assert row["acc"] is not None
        assert row["n_star"] <= row["n"]


def test_bench_isolates_failures(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["bench", "--datasets", f"missing.csv,{BLOBS}", "--algos", "mdmsc",
         "--runs", "1", "--k", "8", "--out-dir", str(out)]
    )
    assert code == 0
    bench = json.loads((out / "bench.json").read_text())
    assert bench["rows"][0]["failed"] is True
    assert bench["rows"][1]["failed"] is False
