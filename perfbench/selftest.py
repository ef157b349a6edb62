"""Shows that the benchmark's checks can fail.

    python3 perfbench/selftest.py

Runs one small pass of the pipeline through the same code as run.py,
confirms that its outputs pass every check, then feeds the checks one
deliberately wrong output at a time and confirms each is rejected.
Exits 0 only if the clean outputs pass and every mutant is rejected.
"""

from __future__ import annotations

import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from checks import CheckFailed, check_correlate, read_csv_rows  # noqa: E402

WORKLOAD = run.Workload("selftest", "mse", 4, (6, 18, 6, 12, 0.1, 1.5), 40, 1)


@contextmanager
def mutated(paths, change):
    """Apply ``change`` to the bytes of each path, restoring them after."""
    paths = paths if isinstance(paths, tuple) else (paths,)
    originals = [path.read_bytes() for path in paths]
    for path, original in zip(paths, originals):
        path.write_bytes(change(original))
    try:
        yield
    finally:
        for path, original in zip(paths, originals):
            path.write_bytes(original)


def edit_line(index: int, edit):
    """A byte transform that rewrites line ``index`` of a text file."""
    def change(data: bytes) -> bytes:
        lines = data.decode().split("\n")
        lines[index] = edit(lines[index])
        return "\n".join(lines).encode()
    return change


def set_field(column: int, value):
    def edit(line: str) -> str:
        cells = line.split(",")
        cells[column] = value(cells[column])
        return ",".join(cells)
    return edit


def flip_byte(offset: int):
    def change(data: bytes) -> bytes:
        return data[:offset] + bytes([data[offset] ^ 0x40]) + data[offset + 1:]
    return change


def main() -> int:
    from rankmil.cli import main as rankmil_main

    root = run.HERE / "out" / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    cli = run.Cli(rankmil_main)
    w = WORKLOAD
    try:
        inputs = run.setup(w, cli, root / "setup", 1)
        out = root / "pass"
        _, printed = run.run_pass(w, cli, inputs, out)
        run.verify(w, inputs, out, printed)
        print("clean outputs: every check passes")

        # Synth output exists twice (set-up and pass, checked equal), so a
        # data mutant changes both copies to reach the dataset checks.
        data = tuple(root / "data" for root in (inputs["work"], out))
        corr = out / "correlations.csv"
        rows = read_csv_rows(corr, ["name", "rho", "p_value", "n"])
        top, top_sign = rows[0][0], 1 if float(rows[0][1]) > 0 else -1
        swap = next(i for i in range(1, len(rows)) if rows[i][1] != rows[0][1])
        best_epoch = int(printed["train"].split()[-1])

        def verify(printed=printed):
            run.verify(w, inputs, out, printed)

        def swap_rows(data_: bytes) -> bytes:
            lines = data_.decode().split("\n")
            lines[1], lines[1 + swap] = lines[1 + swap], lines[1]
            return "\n".join(lines).encode()

        def reword(key, old_new):
            text = printed[key]
            line = next(ln for ln in text.splitlines() if ln.startswith(old_new[0]))
            words = line.split()
            words[old_new[1]] = old_new[2](words[old_new[1]])
            return {**printed, key: text.replace(line, " ".join(words))}

        nudge6 = lambda v: f"{float(v) + 2e-6:.6f}"  # noqa: E731
        cases = [
            ("score CSV value nudged by 2e-6",
             out / "scores.csv", edit_line(1, set_field(1, nudge6)), verify),
            ("eval AUC off by 0.001", None, None,
             lambda: verify(reword("eval", ("AUC ", 1, lambda v: f"{float(v) - 0.001:.4f}")))),
            ("eval AP off by 0.001", None, None,
             lambda: verify(reword("eval", ("AUC ", 3, lambda v: f"{float(v) - 0.001:.4f}")))),
            ("ROC point moved", out / "curves" / "roc.csv",
             edit_line(2, set_field(1, lambda v: f"{float(v) + 0.01:.6f}")), verify),
            ("precision-recall curve missing its last point", out / "curves" / "pr.csv",
             lambda d: d[: d.rstrip(b"\n").rfind(b"\n") + 1], verify),
            ("correlate rho nudged by 2e-6", corr, edit_line(1, set_field(1, nudge6)), verify),
            ("correlate p-value off by 0.1%", corr,
             edit_line(1, set_field(2, lambda v: f"{float(v) * 1.001:.6g}")), verify),
            ("correlate rows out of |rho| order", corr, swap_rows, verify),
            ("planted column with the opposite sign", None, None,
             lambda: check_correlate(corr, *_score_values(out), inputs["work"] / "covariates.csv",
                                     {top: -top_sign}, 25)),
            ("checkpoint output-bias byte flipped", out / "model.milm", flip_byte(-2), verify),
            ("checkpoint magic flipped", out / "model.milm", flip_byte(0), verify),
            ("log best epoch moved", out / "model.milm.log",
             edit_line(best_epoch + 1, set_field(2, lambda v: "0.000000")), verify),
            ("train reports another best epoch", None, None,
             lambda: verify(reword("train", ("best val AUC", 6, lambda v: str(int(v) + 1))))),
            ("feature file truncated", tuple(d / "train" / "pos_0000.milf" for d in data),
             lambda d: d[:-4], verify),
            ("manifest label flipped", tuple(d / "val" / "manifest.csv" for d in data),
             edit_line(1, set_field(1, lambda v: "0")), verify),
            ("pass synth differs from set-up", data[1] / "train" / "neg_0000.milf",
             flip_byte(-1), verify),
        ]
        accepted = []
        for name, path, change, check in cases:
            try:
                if path is None:
                    check()
                else:
                    with mutated(path, change):
                        check()
            except CheckFailed as exc:
                print(f"rejected  {name}: {exc}")
            else:
                print(f"ACCEPTED  {name}")
                accepted.append(name)
        # The planted check must also accept the sign that is there.
        check_correlate(corr, *_score_values(out), inputs["work"] / "covariates.csv",
                        {top: top_sign}, 25)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"{len(cases) - len(accepted)} of {len(cases)} mutants rejected")
    return 1 if accepted else 0


def _score_values(out: Path):
    rows = read_csv_rows(out / "scores.csv", ["bag_id", "score", "label"])
    return [r[0] for r in rows], [float(r[1]) for r in rows]


if __name__ == "__main__":
    sys.exit(main())
