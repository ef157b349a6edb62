"""Benchmark of the rankmil CLI pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports rankmil from its
``src/``. Every CLI command (synth, train, score, eval, correlate) is
called in this process through ``rankmil.cli.main``; one command is one
operation. Set-up runs several times and its median is ``setup_s``; the
workload's pass then repeats for ``--seconds`` and the stage times are
medians over passes. Every output is checked against computations in
``checks.py`` and the run exits 1 if any check fails. With ``--trace 1``
passes alternate between untraced and traced, and the result holds the
per-layer metrics of ``tracer.py`` instead of the end-to-end ones. The
last line of standard output is the JSON result; see README.md.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: the box has two shared cores, and one BLAS
# thread keeps a pass from competing with itself.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from checks import (  # noqa: E402
    CheckFailed, auc_pairs, check_correlate, check_dataset, check_eval, check_scores,
    check_train, read_manifest, read_milm, require, score_manifest,
)
from tracer import METRICS, Tracer, counts_differ, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
TOPK = "0.1"
PATCHES = (300, 600)
DIM = 32
# Synth and train seed of acceptance criterion c5. The triplet model and
# the cohort checkpoint are trained from it because the default config
# misses c5's AUC bound on some other seeds (see CHANGES.md); --seed
# drives the covariate table.
C5_SEED = 1
# Planted tumour-microenvironment columns and the sign of their relation
# to the bag label: T cells up, macrophages and stroma down.
PLANTED = {
    "tme_t_cells_follicular_helper": 1,
    "tme_t_cells_cd8": 1,
    "tme_macrophages_m2": -1,
    "tme_fibroblasts": -1,
    "tme_connective_cells": -1,
}
BLANK_RATE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    loss: str  # objective of the model the workload trains
    epochs: int  # fixed; patience equals it
    data: tuple  # (pos, neg, val_pos, val_neg, witness_rate, shift) of the training data
    genes: int  # covariate columns besides the planted ones
    setups: int  # set-up repeats: more where set-up is cheap, for a steadier median
    cohort: tuple = ()  # (pos, neg) of the held-out cohort, if any

    @property
    def units_per_epoch(self) -> int:
        pos, neg = self.data[:2]
        return pos if self.loss == "triplet-ranking" else pos + neg


C5_DATA = (20, 60, 8, 20, 0.1, 1.5)
WORKLOADS = {
    w.name: w
    for w in (
        Workload("triplet-train", "triplet-ranking", 30, C5_DATA, 500, 7),
        Workload("cohort-analysis", "triplet-ranking", 12, C5_DATA, 1000, 5, (250, 750)),
    )
}

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB", "train_s": "s",
    "train_units_per_s": "units/s", "synth_s": "s", "score_s": "s",
    "score_patches_per_s": "patches/s", "analyze_s": "s",
}


class CommandFailed(RuntimeError):
    pass


class Cli:
    """Calls ``rankmil.cli.main`` with captured output, times it and
    counts the operations attempted and failed."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def __call__(self, *argv) -> tuple[float, str]:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        self.attempted += 1
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = self.main(argv)
            seconds = perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"rankmil {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return seconds, out.getvalue()


def synth_argv(data: tuple, seed: int) -> list:
    pos, neg, val_pos, val_neg, rate, shift = data
    return ["--seed", seed, "--pos", pos, "--neg", neg, "--val-pos", val_pos,
            "--val-neg", val_neg, "--witness-rate", rate, "--shift", shift]


def train_argv(w: Workload, seed: int) -> list:
    return ["--loss", w.loss, "--epochs", w.epochs, "--patience", w.epochs,
            "--topk", TOPK, "--seed", seed]


def write_covariates(path: Path, ids: list[str], labels: list[int], genes: int, rng) -> None:
    """Gene-expression-like table: log-normal columns, the planted
    columns built from the labels, rows and columns shuffled, ~5% of
    cells blank."""
    y = np.asarray(labels, dtype=np.float64)
    names = [f"gene_{j:05d}" for j in range(genes)] + list(PLANTED)
    values = np.empty((len(ids), len(names)))
    values[:, :genes] = rng.lognormal(1.0, 1.0, size=(len(ids), genes))
    for j, sign in enumerate(PLANTED.values(), start=genes):
        values[:, j] = 3.0 + sign * y + rng.normal(0.0, 0.5, size=len(ids))
    order = rng.permutation(len(names))
    values = values[:, order]
    blank = rng.random(values.shape) < BLANK_RATE
    lines = ["bag_id," + ",".join(names[j] for j in order)]
    for i in rng.permutation(len(ids)):
        cells = ("" if b else f"{v:.4f}" for v, b in zip(values[i].tolist(), blank[i].tolist()))
        lines.append(ids[i] + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(path)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def setup(w: Workload, cli: Cli, work: Path, seed: int) -> dict:
    """Inputs of the timed pass: the training data (for the cohort, the
    checkpoint trained on it) and the covariate table."""
    work.mkdir(parents=True)
    info: dict = {"work": work}
    if not w.cohort:
        cli("synth", "--out", work / "data", *synth_argv(w.data, C5_SEED))
        rows = read_manifest(work / "data" / "train" / "manifest.csv")
        ids, labels = [r[0] for r in rows], [r[1] for r in rows]
    else:
        # The checkpoint's bags come from synth's second stream (val/),
        # split into fit and selection sets, so the cohort drawn later
        # from the first stream shares the planted direction but no bags.
        pos, neg, val_pos, val_neg = w.data[:4]
        ck_data = (0, 0, pos + val_pos, neg + val_neg) + w.data[4:]
        cli("synth", "--out", work / "data", *synth_argv(ck_data, C5_SEED))
        val = work / "data" / "val"
        fit = {f"pos_{i:04d}" for i in range(pos)} | {f"neg_{i:04d}" for i in range(neg)}
        rows = read_manifest(val / "manifest.csv")
        for name, keep in (("fit.csv", True), ("select.csv", False)):
            lines = ["bag_id,label,path"]
            lines += [f"{b},{y},{p.name}" for b, y, p in rows if (b in fit) == keep]
            (val / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        info["train_s"], info["train_out"] = cli(
            "train", "--train", val / "fit.csv", "--val", val / "select.csv",
            "--out", work / "model.milm", *train_argv(w, C5_SEED))
        cpos, cneg = w.cohort
        ids = [f"pos_{i:04d}" for i in range(cpos)] + [f"neg_{i:04d}" for i in range(cneg)]
        labels = [1] * cpos + [0] * cneg
    write_covariates(work / "covariates.csv", ids, labels, w.genes,
                     np.random.default_rng([seed % 2**64, 0x636F76]))
    return info


def settle() -> None:
    """Flush the previous pass's writes and deletes to disk, untimed.
    Without it each pass deletes and rewrites tens of MB before writeback
    catches up, and writing a dataset grows from 40 to 85 ms within 20 s
    of repeats, which a user's single ``synth`` never meets."""
    os.sync()


def run_pass(w: Workload, cli: Cli, inputs: dict, out: Path) -> tuple[dict, dict]:
    """One pass of the workload's commands; returns the seconds of each
    and what train and eval printed. Training workloads write their data
    again (the bytes set-up wrote), train on it, then score, evaluate
    and correlate their own training bags; the cohort workload writes
    the cohort and scores it with the set-up checkpoint."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    settle()
    work = inputs["work"]
    times, printed = {}, {}
    if w.cohort:
        times["synth"], _ = cli("synth", "--out", out / "cohort",
                                *synth_argv(w.cohort + (0, 0) + w.data[4:], C5_SEED))
        model, scored = work / "model.milm", out / "cohort" / "train" / "manifest.csv"
    else:
        times["synth"], _ = cli("synth", "--out", out / "data",
                                *synth_argv(w.data, C5_SEED))
        model, scored = out / "model.milm", out / "data" / "train" / "manifest.csv"
        times["train"], printed["train"] = cli(
            "train", "--train", scored, "--val", out / "data" / "val" / "manifest.csv",
            "--out", model, *train_argv(w, C5_SEED))
    times["score"], _ = cli("score", "--model", model, "--data", scored,
                            "--out", out / "scores.csv", "--topk", TOPK)
    times["eval"], printed["eval"] = cli("eval", "--scores", out / "scores.csv",
                                         "--curves", out / "curves")
    times["correlate"], _ = cli("correlate", "--scores", out / "scores.csv",
                                "--covariates", work / "covariates.csv",
                                "--out", out / "correlations.csv")
    return times, printed


def verify(w: Workload, inputs: dict, out: Path, printed: dict) -> int:
    """Checks every output of the last pass (every pass is byte-identical
    to the warm-up pass); returns the patch count the score command read."""
    work = inputs["work"]
    pos, neg, val_pos, val_neg, rate, shift = w.data
    frac = float(TOPK)
    if w.cohort:
        val = work / "data" / "val"
        check_dataset(val / "manifest.csv", pos + val_pos, neg + val_neg, DIM, PATCHES, rate, shift)
        scored = out / "cohort" / "train" / "manifest.csv"
        check_dataset(scored, *w.cohort, DIM, PATCHES, rate, shift)
        model, log, train_out, select = (work / "model.milm", work / "model.milm.log",
                                         inputs["train_out"], val / "select.csv")
    else:
        data = out / "data"
        require(digest(data) == digest(work / "data"), "pass and set-up synth wrote different bytes")
        check_dataset(data / "train" / "manifest.csv", pos, neg, DIM, PATCHES, rate, shift)
        check_dataset(data / "val" / "manifest.csv", val_pos, val_neg, DIM, PATCHES, rate, shift)
        scored = data / "train" / "manifest.csv"
        model, log, train_out, select = (out / "model.milm", out / "model.milm.log",
                                         printed["train"], data / "val" / "manifest.csv")
    params = read_milm(model)
    _, sel_labels, sel_scores, _ = score_manifest(params, select, frac)
    best = check_train(train_out, log, w.epochs, auc_pairs(sel_scores, sel_labels))
    if w.loss == "triplet-ranking":
        require(best >= 0.90, f"best val AUC {best} is below c5's bound 0.90")
    ids, labels, scores, n_patches = score_manifest(params, scored, frac)
    values = check_scores(out / "scores.csv", ids, labels, scores)
    check_eval(printed["eval"], out / "curves", values, labels)
    planted = PLANTED if w.cohort else {}
    check_correlate(out / "correlations.csv", ids, values, work / "covariates.csv", planted, 25)
    return n_patches


def end_to_end(w: Workload, setups: list[dict], passes: list[dict], n_patches: int,
               peak_rss_mb: float) -> dict:
    """Medians over passes, or over set-ups for ``setup_s`` and for the
    cohort's checkpoint training, which runs only in set-up."""
    med = statistics.median
    stage = {k: med(p[k] for p in passes) for k in passes[0]}
    train_s = stage["train"] if "train" in stage else med(s["train_s"] for s in setups)
    values = {
        "setup_s": med(s["setup_s"] for s in setups),
        "pipeline_s": med(sum(p.values()) for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "train_s": train_s,
        "train_units_per_s": w.epochs * w.units_per_epoch / train_s,
        "synth_s": stage["synth"],
        "score_s": stage["score"],
        "score_patches_per_s": n_patches / stage["score"],
        "analyze_s": med(p["eval"] + p["correlate"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def machine_facts() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} numpy={np.__version__} blas={blas!r} "
            f"blas_threads={BLAS_THREADS}")


@contextlib.contextmanager
def traced(cli: Cli, tracer: Tracer, label):
    """Trace the commands run inside under ``label``; no-op for None."""
    if label is None:
        yield
        return
    tracer.install(label)
    cli.tracer = tracer
    try:
        yield
    finally:
        cli.tracer = None
        tracer.uninstall()


def measure(w: Workload, cli: Cli, work: Path, args, tracer) -> dict:
    """Set-up repeats, warm-up, timed passes and checks; returns the
    result's metrics."""
    setups = []
    for i in range(w.setups):
        # A traced run traces the last set-up too, so the cohort's set-up
        # training shows in the training layers.
        settle()
        with traced(cli, tracer, "setup" if args.trace and i == w.setups - 1 else None):
            start = perf_counter()
            info = setup(w, cli, work / f"setup{i}", args.seed)
            info["setup_s"] = perf_counter() - start
        setups.append(info)
    inputs = setups[0]
    reference = digest(inputs["work"])
    for info in setups[1:]:
        if digest(info["work"]) != reference:
            raise CheckFailed("set-up repeats wrote different bytes")
        shutil.rmtree(info["work"])

    out = work / "pass"
    run_pass(w, cli, inputs, out)  # warm-up: imports, caches, first-touch pages
    reference = digest(out)
    untraced, traced_passes, per_layer = [], [], []
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        tracing = bool(args.trace) and i % 2 == 1
        with traced(cli, tracer, i if tracing else None):
            times, printed = run_pass(w, cli, inputs, out)
        (traced_passes if tracing else untraced).append(times)
        print(f"# pass {i}{' traced' if tracing else ''}: "
              + " ".join(f"{k}={v:.4f}" for k, v in times.items()))
        if tracing:
            per_layer.append(tracer.pass_metrics(("setup", i)))
        if digest(out) != reference:
            raise CheckFailed(f"pass {i} wrote different bytes from the warm-up pass")
        i += 1
        enough = len(untraced) >= MIN_PASSES and (not args.trace or len(traced_passes) >= 2)
        if enough and perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_patches = verify(w, inputs, out, printed)
    print(f"# passes={i} attempted={cli.attempted}")
    if not args.trace:
        return end_to_end(w, setups, untraced, n_patches, peak_rss_mb)

    differ = counts_differ(per_layer)
    if differ:
        raise CheckFailed(f"counts differ between traced passes: {differ}")
    overhead = (statistics.median(sum(t.values()) for t in traced_passes)
                - statistics.median(sum(t.values()) for t in untraced))
    summary = summarize(per_layer, overhead)
    absent = tracer.absent_metrics()
    print(f"# absent: {', '.join(absent) if absent else 'none'}")
    write_trace(HERE / "out" / f"{w.name}.trace.jsonl", tracer, summary, absent)
    return {m: {"value": summary[m], "unit": unit} for m, unit, _, _ in METRICS}


def write_trace(path: Path, tracer, summary: dict, absent: list[str]) -> None:
    """All spans of the traced set-up and passes, one JSON object per
    line, then the per-layer summary."""
    with open(path, "w", encoding="utf-8") as fh:
        for p, name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"pass": p, "name": name, "start": start, "end": end,
                                 "parent": parent}) + "\n")
        fh.write(json.dumps({"summary": summary, "absent": absent}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rankmil" / "cli.py").is_file():
        print(f"error: no rankmil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rankmil
    from rankmil.cli import main as rankmil_main

    if Path(rankmil.__file__).resolve().parent != (SRC / "rankmil").resolve():
        print(f"error: imported rankmil from {rankmil.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = HERE / "out" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    cli = Cli(rankmil_main)
    print(f"# perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"{machine_facts()}")
    metrics, correct, code = {}, True, 0
    try:
        metrics = measure(w, cli, work, args, Tracer())
    except (CheckFailed, CommandFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        correct, code = False, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": cli.attempted, "failed": cli.failed,
                      "metrics": metrics}))
    return code


if __name__ == "__main__":
    sys.exit(main())
