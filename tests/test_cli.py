import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankmil
from rankmil.cli import _read_score_csv, main
from rankmil.data import (
    FormatError,
    load_dataset,
    load_manifest,
    write_feature_file,
    write_manifest,
)
from rankmil.model import init_params, load_checkpoint, save_checkpoint
from rankmil.numerics import Rng
from rankmil.training import score_dataset

# Small enough that the whole pipeline runs in well under a second.
_SYNTH = [
    "--dim", "4", "--pos", "4", "--neg", "6", "--val-pos", "2", "--val-neg", "3",
    "--patches-min", "5", "--patches-max", "10", "--shift", "3.0", "--seed", "9",
]
_TRAIN = ["--hidden", "4", "--epochs", "3", "--seed", "2"]


def _synth(tmp_path, extra=()):
    out = tmp_path / "data"
    assert main(["synth", "--out", str(out), *_SYNTH, *extra]) == 0
    return out


def _train(tmp_path, data, extra=()):
    model = tmp_path / "model.milm"
    code = main([
        "train", "--train", str(data / "train" / "manifest.csv"),
        "--val", str(data / "val" / "manifest.csv"),
        "--out", str(model), *_TRAIN, *extra,
    ])
    assert code == 0
    return model


def test_pipeline_and_reported_auc_consistency(tmp_path, capsys):
    data = _synth(tmp_path)
    assert (data / "train" / "manifest.csv").exists()
    assert (data / "val" / "manifest.csv").exists()
    capsys.readouterr()

    model = _train(tmp_path, data)
    out = capsys.readouterr().out
    assert f"checkpoint -> {model}" in out
    assert f"log -> {model}.log" in out
    best_line = [l for l in out.splitlines() if l.startswith("best val AUC")][0]
    best_auc = best_line.split()[3]
    assert (tmp_path / "model.milm.log").read_text().startswith("epoch,loss,val_auc")

    scores = tmp_path / "val_scores.csv"
    assert main([
        "score", "--model", str(model),
        "--data", str(data / "val" / "manifest.csv"), "--out", str(scores),
    ]) == 0
    out = capsys.readouterr().out
    assert "scored 5 bags -> " in out
    lines = scores.read_text().splitlines()
    assert lines[0] == "bag_id,score,label"
    assert len(lines) == 6
    for line in lines[1:]:
        bag_id, score, label = line.split(",")
        assert len(score.split(".")[1]) == 6
        assert label in ("0", "1")

    # The checkpoint holds the best-validation-AUC parameters, so
    # rescoring the validation set must reproduce the reported AUC.
    assert main(["eval", "--scores", str(scores)]) == 0
    out = capsys.readouterr().out
    assert f"AUC {best_auc} " in out


def test_train_ce_loss_runs(tmp_path, capsys):
    data = _synth(tmp_path)
    _train(tmp_path, data, extra=("--loss", "ce"))
    out = capsys.readouterr().out
    assert "best val AUC" in out


def test_config_echo_includes_defaults(tmp_path, capsys):
    _synth(tmp_path)
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("config synth ")
    resolved = json.loads(first.split(" ", 2)[2])
    assert resolved["witness_rate"] == 0.1  # default, not overridden
    assert resolved["dim"] == 4
    assert resolved["seed"] == 9
    assert "func" not in resolved


def test_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "d")
    assert main(["synth", "--out", out, "--witness-rate", "1.5"]) == 2
    assert "must be in (0, 1]" in capsys.readouterr().err
    assert main(["synth", "--out", out, "--shift", "-2"]) == 2
    assert main(["synth"]) == 2  # missing required --out
    assert main(["nonsense"]) == 2
    assert main(["synth", "--out", out, "--patches-min", "9", "--patches-max", "4"]) == 2
    assert "exceeds --patches-max" in capsys.readouterr().err
    assert main(["train", "--train", "x", "--val", "y", "--out", "z", "--alpha1", "-1"]) == 2
    assert main(["score", "--model", "m", "--data", "d", "--out", "o", "--topk", "0"]) == 2


def test_flag_range_messages(tmp_path, capsys):
    out = str(tmp_path / "d")
    cases = [
        (["synth", "--out", out, "--witness-rate", "0"], "must be in (0, 1], got 0"),
        (["synth", "--out", out, "--witness-rate", "x"], "not a number: 'x'"),
        (["synth", "--out", out, "--shift", "-0.5"], "must be >= 0, got -0.5"),
        (["synth", "--out", out, "--shift", "nan"], "must be >= 0, got nan"),
        (["synth", "--out", out, "--dim", "0"], "must be >= 1, got 0"),
        (["synth", "--out", out, "--dim", "2.5"], "not an integer: '2.5'"),
        (["synth", "--out", out, "--pos", "-1"], "must be >= 0, got -1"),
        (["train", "--train", "x", "--val", "y", "--out", "z", "--lr", "0"], "must be > 0, got 0"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


def test_data_errors_exit_1(tmp_path, capsys):
    missing = str(tmp_path / "nope" / "manifest.csv")
    assert main(["train", "--train", missing, "--val", missing, "--out", "m"]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    junk = tmp_path / "junk.milm"
    junk.write_bytes(b"JUNKJUNKJUNK")
    data = _synth(tmp_path)
    assert main([
        "score", "--model", str(junk),
        "--data", str(data / "train" / "manifest.csv"), "--out", str(tmp_path / "s.csv"),
    ]) == 1
    assert "bad magic" in capsys.readouterr().err


def test_train_duplicate_manifest_bag_id_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    manifest = data / "train" / "manifest.csv"
    rows = load_manifest(manifest)
    write_manifest(manifest, [rows[0], (rows[0][0], *rows[1][1:]), *rows[2:]])
    capsys.readouterr()
    code = main([
        "train", "--train", str(manifest), "--val", str(data / "val" / "manifest.csv"),
        "--out", str(tmp_path / "m.milm"), *_TRAIN,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {manifest}: line 3: duplicate bag_id {rows[0][0]!r}" in err


def test_score_dim_mismatch_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    model = _train(tmp_path, data)
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), *_SYNTH[2:], "--dim", "5"]) == 0
    capsys.readouterr()
    code = main([
        "score", "--model", str(model),
        "--data", str(other / "train" / "manifest.csv"), "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 1
    assert "data dim 5 does not match model dim 4" in capsys.readouterr().err


def test_train_dim_mismatch_exit_1(tmp_path, capsys):
    data = _synth(tmp_path)
    other = tmp_path / "other"
    assert main(["synth", "--out", str(other), *_SYNTH[2:], "--dim", "5"]) == 0
    capsys.readouterr()
    code = main([
        "train", "--train", str(data / "train" / "manifest.csv"),
        "--val", str(other / "val" / "manifest.csv"),
        "--out", str(tmp_path / "m.milm"), *_TRAIN,
    ])
    assert code == 1
    assert "train dim 4 != validation dim 5" in capsys.readouterr().err


def test_score_empty_manifest(tmp_path, capsys):
    data = _synth(tmp_path)
    model = _train(tmp_path, data)
    empty = tmp_path / "empty.csv"
    empty.write_text("bag_id,label,path\n")
    out = tmp_path / "scores.csv"
    assert main(["score", "--model", str(model), "--data", str(empty), "--out", str(out)]) == 0
    assert "scored 0 bags" in capsys.readouterr().out
    assert out.read_text() == "bag_id,score,label\n"


def _ragged_cohort(tmp_path, sizes, dim=3):
    """A manifest of bags whose patch counts follow ``sizes``."""
    rng = Rng(8)
    rows = []
    for i, n in enumerate(sizes):
        write_feature_file(tmp_path / f"b{i}.milf", rng.gauss_block(n * dim).reshape(n, dim))
        rows.append((f"b{i}", i % 2, f"b{i}.milf"))
    write_manifest(tmp_path / "manifest.csv", rows)
    model = tmp_path / "m.milm"
    save_checkpoint(init_params(dim, 6, Rng(9)), model)
    return tmp_path / "manifest.csv", model


def test_score_streams_to_the_bytes_of_a_loaded_dataset(tmp_path):
    manifest, model = _ragged_cohort(tmp_path, [5, 2, 40, 7, 40, 90, 1, 60])
    out = tmp_path / "s.csv"
    assert main(["score", "--model", str(model), "--data", str(manifest),
                 "--out", str(out), "--topk", "0.2"]) == 0
    ds = load_dataset(manifest)
    scored = score_dataset(load_checkpoint(model), ds, 0.2)
    want = ["bag_id,score,label"]
    want += [f"{bs.bag_id},{bs.score:.6f},{bag.label}" for bs, bag in zip(scored, ds)]
    assert out.read_text() == "\n".join(want) + "\n"


def test_score_corrupt_last_bag_writes_nothing(tmp_path, capsys):
    manifest, model = _ragged_cohort(tmp_path, [4, 6, 5])
    (tmp_path / "b2.milf").write_bytes((tmp_path / "b2.milf").read_bytes()[:-3])
    before = sorted(os.listdir(tmp_path))
    out = tmp_path / "s.csv"
    assert main(["score", "--model", str(model), "--data", str(manifest), "--out", str(out)]) == 1
    assert "b2.milf: payload is" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


_PEAK_KIB = """
import contextlib, io, sys
from rankmil.cli import main


def peak_kib():
    with open("/proc/self/status") as fh:
        return int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])


work = sys.argv[1]
"""

_MEMORY_SCRIPT = _PEAK_KIB + """
from rankmil.model import init_params, save_checkpoint
from rankmil.numerics import Rng

save_checkpoint(init_params(32, 128, Rng(1)), work + "/m.milm")
base = peak_kib()
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "--out", work + "/c", "--pos", "75", "--neg", "225",
                 "--val-pos", "0", "--val-neg", "0"]) == 0
    assert main(["score", "--model", work + "/m.milm", "--data",
                 work + "/c/train/manifest.csv", "--out", work + "/s.csv"]) == 0
print(peak_kib() - base)
"""


def _run_memory_script(script, tmp_path):
    """Run ``script`` in a fresh interpreter with one BLAS thread and
    return its stdout."""
    src = str(Path(rankmil.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_synth_and_score_hold_one_bag_at_a_time(tmp_path):
    """300 bags of 300 to 600 patches at dim 32 are about 35 MB as
    float64. Streaming holds at most two bags of features plus 8 bytes of
    patch score per patch, so peak RSS grows by a few MB over the baseline.

    The peak is VmHWM, the high-water mark of the child's own memory
    image. ``ru_maxrss`` would not do: a child starts with the RSS of
    the process that forked it, here the whole test session, as its
    maximum, which hides most of the growth."""
    grown_mb = int(_run_memory_script(_MEMORY_SCRIPT, tmp_path)) / 1024
    assert grown_mb < 12.0, f"peak RSS grew by {grown_mb:.1f} MB"


_TRAIN_MEMORY_SCRIPT = _PEAK_KIB + """
from rankmil.data import load_dataset

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["synth", "--out", work + "/c", "--pos", "50", "--neg", "150",
                 "--val-pos", "10", "--val-neg", "30"]) == 0
    base = peak_kib()
    assert main(["train", "--train", work + "/c/train/manifest.csv", "--val",
                 work + "/c/val/manifest.csv", "--out", work + "/m.milm", "--epochs", "1"]) == 0
grown = peak_kib() - base
values = sum(bag.n_patches * bag.dim for part in ("train", "val")
             for bag in load_dataset(work + "/c/" + part + "/manifest.csv"))
print(grown, values)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_train_holds_loaded_bags_at_float32(tmp_path):
    """``train`` holds its training and validation sets in memory: here
    240 bags of 300 to 600 patches at dim 32, about 3.5 million values,
    13 MB at the 4 bytes of the file's float32 and 26 MB as float64.
    The hidden-layer buffer, the model and the optimizer add about 2 MB
    (1.9 MB measured), so a growth of VmHWM (see
    test_synth_and_score_hold_one_bag_at_a_time) under 22 MB holds only
    if loaded bags stay float32."""
    grown_kib, values = map(int, _run_memory_script(_TRAIN_MEMORY_SCRIPT, tmp_path).split())
    assert 8 * values / 2**20 > 22.0 > 4 * values / 2**20 + 4.0
    grown_mb = grown_kib / 1024
    assert grown_mb < 22.0, f"peak RSS grew by {grown_mb:.1f} MB"


def test_eval_examples_and_curves(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "bag_id,score,label\na,0.900000,1\nb,0.800000,1\nc,0.200000,0\nd,0.100000,0\n"
    )
    assert main(["eval", "--scores", str(scores)]) == 0
    assert "AUC 1.0000 AP 1.0000" in capsys.readouterr().out

    scores.write_text(
        "bag_id,score,label\na,0.800000,1\nb,0.300000,1\nc,0.500000,0\nd,0.100000,0\n"
    )
    curves = tmp_path / "curves"
    assert main(["eval", "--scores", str(scores), "--curves", str(curves)]) == 0
    out = capsys.readouterr().out
    assert "AUC 0.7500 AP 0.8333" in out
    roc = (curves / "roc.csv").read_text().splitlines()
    pr = (curves / "pr.csv").read_text().splitlines()
    assert roc[0] == "fpr,tpr" and roc[1] == "0.000000,0.000000"
    assert roc[-1] == "1.000000,1.000000"
    assert pr[0] == "recall,precision"
    assert pr[1] == "0.500000,1.000000"


def test_eval_without_labels_exit_2(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("bag_id,score\na,0.9\nb,0.1\n")
    assert main(["eval", "--scores", str(scores)]) == 2
    assert "no label column" in capsys.readouterr().err


def test_eval_header_only_score_csv_exit_1(tmp_path, capsys):
    """A label column with no rows under it is a data error, not a
    usage error."""
    scores = tmp_path / "scores.csv"
    scores.write_text("bag_id,score,label\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == f"error: {scores}: score CSV has no rows\n"


def test_correlate_header_only_score_csv_exit_1(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("bag_id,score,label\n")
    cov = tmp_path / "cov.csv"
    cov.write_text("bag_id,x\na,1.0\nb,2.0\nc,3.0\n")
    assert main(["correlate", "--scores", str(scores), "--covariates", str(cov),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == f"error: {scores}: score CSV has no rows\n"


def test_eval_names_the_line_a_row_starts_on(tmp_path, capsys):
    """A quoted bag_id spanning two lines moves the next row to line 4."""
    scores = tmp_path / "scores.csv"
    scores.write_text('bag_id,score,label\n"a\nb",0.5,1\nc,x,0\n')
    assert main(["eval", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == f"error: {scores}: line 4: score is not numeric: 'x'\n"


def test_eval_single_class_exit_1(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("bag_id,score,label\na,0.9,1\nb,0.1,1\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert "both classes" in capsys.readouterr().err


def test_eval_malformed_score_csv_exit_1(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("bag,points\na,0.9\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert "header must start 'bag_id,score'" in capsys.readouterr().err
    scores.write_text("bag_id,score,label\na,high,1\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert "score is not numeric" in capsys.readouterr().err
    scores.write_text("bag_id,score,label\nb,0.1,0\n,0.9,1\n")
    assert main(["eval", "--scores", str(scores)]) == 1
    assert capsys.readouterr().err == f"error: {scores}: line 3: empty bag_id\n"


def test_score_csv_malformed_csv_bytes_and_non_finite(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text('bag_id,score,label\n"' + "a" * 200_000 + '",0.5,1\n')
    with pytest.raises(FormatError, match=re.escape(f"{path}: field larger than field limit")):
        _read_score_csv(str(path))
    path.write_bytes(b"bag_id,score,label\na,0.5,1\n\xff,0.2,0\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
        _read_score_csv(str(path))
    for cell in ("nan", "inf", "-Infinity", "1e999"):
        path.write_text(f"bag_id,score,label\na,0.5,1\nb,{cell},0\n")
        with pytest.raises(FormatError) as err:
            _read_score_csv(str(path))
        assert str(err.value) == f"{path}: line 3: score is non-finite: {cell!r}"
    # Blank lines count towards the line number.
    path.write_text("bag_id,score,label\n\na,0.5,1\n\nb,x,0\n")
    with pytest.raises(FormatError, match="line 5: score is not numeric: 'x'"):
        _read_score_csv(str(path))


def test_malformed_csv_inputs_exit_1_naming_the_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    good.write_text("bag_id,score,label\na,0.9,1\nb,0.1,0\nc,0.5,0\n")
    huge = tmp_path / "huge.csv"
    huge.write_text('bag_id,score,label\n"' + "a" * 200_000 + '",0.5,1\n')
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"bag_id,score,label\na,0.9,1\nb,0.1,\xff\n")
    nan = tmp_path / "nan.csv"
    nan.write_text("bag_id,score,label\na,0.9,1\nb,nan,0\n")
    for bad in (huge, binary, nan):
        assert main(["eval", "--scores", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        for scores, cov in ((bad, good), (good, bad)):
            assert main(["correlate", "--scores", str(scores), "--covariates", str(cov),
                         "--out", str(tmp_path / "o.csv")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"bag_id,label,path\n\xff,1,a.milf\n")
    assert main(["train", "--train", str(manifest), "--val", str(manifest), "--out", "m"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {manifest}: 'utf-8' codec")


def test_correlate_output_and_warnings(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    rows = "\n".join(f"b{i},{float(i)},0" for i in range(6))
    scores.write_text("bag_id,score,label\n" + rows + "\n")
    cov = tmp_path / "cov.csv"
    lines = ["bag_id,anti,same,flat"]
    lines += [f"b{i},{-2.0 * i},{3.0 * i},7.0" for i in range(6)]
    lines.append("zz,1.0,1.0,7.0")
    cov.write_text("\n".join(lines) + "\n")
    out = tmp_path / "corr.csv"
    assert main([
        "correlate", "--scores", str(scores), "--covariates", str(cov), "--out", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "dropped 1 covariate rows with no score" in captured.err
    assert "skipped column 'flat': constant column" in captured.err
    assert "correlations for 2 columns" in captured.out
    got = out.read_text().splitlines()
    assert got[0] == "name,rho,p_value,n"
    assert got[1] == "anti,-1.000000,0,6"
    assert got[2] == "same,1.000000,0,6"


def test_commas_and_quotes_in_ids_and_names_survive_the_pipeline(tmp_path, capsys):
    """A bag_id or covariate name holding a comma, a double quote or a
    carriage return is quoted by every CSV writer, so score, eval and
    correlate read back the fields that were written."""
    ids = ["x,1", 'say "hi"', "plain", 'a,"b"', "cr\rid"]
    rng = Rng(8)
    for i in range(len(ids)):
        write_feature_file(tmp_path / f"b{i}.milf", rng.gauss_block(5 * 3).reshape(5, 3))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        'bag_id,label,path\n"x,1",1,b0.milf\n"say ""hi""",1,b1.milf\n'
        'plain,0,b2.milf\n"a,""b""",0,b3.milf\n"cr\rid",1,b4.milf\n'
    )
    assert [row[0] for row in load_manifest(manifest)] == ids
    rewritten = tmp_path / "rewritten.csv"
    write_manifest(rewritten, load_manifest(manifest))
    assert load_manifest(rewritten) == load_manifest(manifest)

    model = tmp_path / "m.milm"
    save_checkpoint(init_params(3, 4, Rng(2)), model)
    scores = tmp_path / "scores.csv"
    assert main(["score", "--model", str(model), "--data", str(manifest),
                 "--out", str(scores)]) == 0
    read_ids, _, labels = _read_score_csv(str(scores))
    assert read_ids == ids
    assert labels == [1, 1, 0, 0, 1]
    assert main(["eval", "--scores", str(scores)]) == 0
    assert "AUC" in capsys.readouterr().out

    cov = tmp_path / "cov.csv"
    cov.write_text(
        'bag_id,"cd8, activated","t""fh","b\rcells"\n"x,1",1.0,4.0,2.0\n'
        '"say ""hi""",2.0,3.0,1.0\nplain,3.0,1.0,5.0\n"a,""b""",5.0,2.0,4.0\n'
        '"cr\rid",4.0,5.0,3.0\n'
    )
    out = tmp_path / "corr.csv"
    assert main(["correlate", "--scores", str(scores), "--covariates", str(cov),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "rho", "p_value", "n"]
    assert [row[0] for row in rows[1:]] == ['t"fh', "b\rcells", "cd8, activated"]
    assert all(len(row) == 4 and row[3] == "5" for row in rows[1:])


@pytest.mark.parametrize("command", ["eval", "correlate"])
def test_duplicate_score_row_exit_1(tmp_path, capsys, command):
    # Counting the repeated row twice would make eval report AP 0.6667, not 0.5.
    scores = tmp_path / "scores.csv"
    scores.write_text("bag_id,score,label\na,0.9,1\na,0.9,1\nb,0.1,0\nc,0.95,0\n")
    cov = tmp_path / "cov.csv"
    cov.write_text("bag_id,x\na,1.0\nb,2.0\nc,3.0\n")
    argv = {
        "eval": ["eval", "--scores", str(scores)],
        "correlate": ["correlate", "--scores", str(scores), "--covariates", str(cov),
                      "--out", str(tmp_path / "o.csv")],
    }[command]
    assert main(argv) == 1
    assert f"error: {scores}: line 3: duplicate bag_id 'a'" in capsys.readouterr().err


def test_synth_rerun_byte_identical(tmp_path):
    a = _synth(tmp_path / "a")
    b = _synth(tmp_path / "b")
    for sub in ("train", "val"):
        names = sorted(p.name for p in (a / sub).iterdir())
        assert names == sorted(p.name for p in (b / sub).iterdir())
        for name in names:
            assert (a / sub / name).read_bytes() == (b / sub / name).read_bytes()


def test_outputs_create_missing_parent_dirs(tmp_path, capsys):
    data = _synth(tmp_path)
    model = tmp_path / "runs" / "a" / "model.milm"
    assert main([
        "train", "--train", str(data / "train" / "manifest.csv"),
        "--val", str(data / "val" / "manifest.csv"),
        "--out", str(model), *_TRAIN,
    ]) == 0
    assert model.exists()
    assert (tmp_path / "runs" / "a" / "model.milm.log").exists()

    scores = tmp_path / "out" / "scores.csv"
    assert main([
        "score", "--model", str(model),
        "--data", str(data / "val" / "manifest.csv"), "--out", str(scores),
    ]) == 0
    assert scores.read_text().startswith("bag_id,score,label")
