"""Forked workers: map_chunks itself, and synth and score split over a
forced number of worker processes. Output bytes and error messages must
be those of one process, and no test may leave a child behind."""

import os
import signal
import struct
import threading
import time

import numpy as np
import pytest

import rankmil.cli as cli
import rankmil.parallel as parallel
from rankmil.cli import main
from rankmil.model import init_params, save_checkpoint
from rankmil.numerics import Rng
from rankmil.parallel import WorkerFailed, map_chunks, worker_count


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """``forks.use(n)`` makes every command split its items over ``n``
    processes; ``forks.count`` counts the children forked since."""

    class Forks:
        count = 0

        @staticmethod
        def use(n):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda: n)
            monkeypatch.setattr(parallel, "MIN_ROWS", 1)
            Forks.count = 0

    real_fork = parallel._fork

    def counting_fork(*args):
        Forks.count += 1
        return real_fork(*args)

    monkeypatch.setattr(parallel, "_fork", counting_fork)
    return Forks


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_map_chunks_splits_in_order_and_forks_one_child_per_further_chunk(forks):
    parent = os.getpid()
    out = map_chunks(list(range(10)), lambda chunk: (list(chunk), os.getpid()), 3)
    assert [chunk for chunk, _ in out] == [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
    pids = [pid for _, pid in out]
    assert pids[0] == parent and parent not in pids[1:] and len(set(pids)) == 3
    assert forks.count == 2
    # More workers than items: one item each. No items: one call, no fork.
    assert map_chunks(["a", "b"], lambda chunk: list(chunk), 5) == [["a"], ["b"]]
    assert map_chunks([], lambda chunk: list(chunk), 3) == [[]]
    assert forks.count == 3


def test_worker_count_gives_each_process_its_rows(monkeypatch):
    monkeypatch.setattr(parallel, "MIN_ROWS", 100)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
    assert worker_count([]) == 1
    assert worker_count([99]) == 1
    assert worker_count([50, 50, 99]) == 1
    assert worker_count([200]) == 2
    rows = iter([100, 100, 100, 7, 7])
    assert worker_count(rows) == 3
    assert list(rows) == [7, 7]  # stopped once every CPU had its share
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    assert worker_count([10**6]) == 1


def test_worker_count_is_1_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(parallel, "MIN_ROWS", 1)
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
    assert worker_count([10]) == 2
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert worker_count([10]) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_earliest_failing_chunk_wins():
    def work(chunk):
        if chunk[0] in (2, 4):
            raise ValueError(f"chunk at {chunk[0]}")
        return list(chunk)

    with pytest.raises(ValueError, match="^chunk at 2$"):
        map_chunks(list(range(6)), work, 3)

    def parent_fails_too(chunk):
        if chunk[0] == 0:
            raise KeyError("parent")
        return work(chunk)

    with pytest.raises(KeyError, match="parent"):
        map_chunks(list(range(6)), parent_fails_too, 3)


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_parent_error_kills_and_reaps_running_children(error):
    def work(chunk):
        if chunk[0] == 0:
            raise error("stop")
        time.sleep(60)
        return []

    begin = time.monotonic()
    with pytest.raises(error):
        map_chunks(list(range(3)), work, 3)
    assert time.monotonic() - begin < 30  # killed, not waited for


def test_killed_worker_raises_worker_failed():
    def work(chunk):
        if chunk[0]:
            os.kill(os.getpid(), signal.SIGKILL)
        return list(chunk)

    with pytest.raises(WorkerFailed, match=r"was killed by signal 9 before sending its result"):
        map_chunks(list(range(4)), work, 2)


def test_children_never_flush_the_parents_buffered_output(tmp_path):
    path = tmp_path / "out.txt"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("written once\n")  # still in the buffer when the children fork
        assert map_chunks(list(range(4)), lambda chunk: len(chunk), 4) == [1, 1, 1, 1]
    assert path.read_text(encoding="utf-8") == "written once\n"


_SYNTH = ["--dim", "3", "--patches-min", "2", "--patches-max", "5", "--seed", "4"]


def test_synth_writes_the_same_bytes_for_1_2_and_3_workers(tmp_path, forks, capsys):
    trees, outputs = [], []
    for n in (1, 2, 3):
        forks.use(n)
        out = tmp_path / f"w{n}"
        assert main(["synth", "--out", str(out), "--pos", "3", "--neg", "4", "--val-pos", "2",
                     "--val-neg", "3", *_SYNTH]) == 0
        assert forks.count == 2 * (n - 1)  # the train and the val sets
        trees.append(_tree(out))
        outputs.append(capsys.readouterr().out.replace(str(out), "OUT"))
    assert len(trees[0]) == 7 + 5 + 2
    assert trees[1] == trees[0] and trees[2] == trees[0]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_synth_failure_in_a_worker_writes_no_manifest(tmp_path, forks, capsys):
    forks.use(3)
    out = tmp_path / "d"
    (out / "train" / "neg_0002.milf").mkdir(parents=True)  # last chunk cannot replace it
    assert main(["synth", "--out", str(out), "--pos", "2", "--neg", "4", "--val-pos", "0",
                 "--val-neg", "0", *_SYNTH]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "neg_0002.milf" in err and "Traceback" not in err
    assert forks.count == 2
    assert not (out / "train" / "manifest.csv").exists()


@pytest.fixture
def cohort(tmp_path, capsys):
    """Six bags of dim 3 (pos_0000, pos_0001, neg_0000 .. neg_0003:
    three chunks of two with 3 workers) and a dim-3 model."""
    data = tmp_path / "cohort"
    assert main(["synth", "--out", str(data), "--pos", "2", "--neg", "4", "--val-pos", "0",
                 "--val-neg", "0", *_SYNTH]) == 0
    model = tmp_path / "m.milm"
    save_checkpoint(init_params(3, 4, Rng(1)), model)
    capsys.readouterr()
    return data / "train", model


def _score(capsys, manifest, model, out):
    code = main(["score", "--model", str(model), "--data", str(manifest), "--out", str(out)])
    captured = capsys.readouterr()
    return code, captured.out.replace(str(out), "OUT"), captured.err


def test_score_csv_is_the_same_for_1_2_and_3_workers(tmp_path, cohort, forks, capsys):
    data, model = cohort
    results = []
    for n in (1, 2, 3):
        forks.use(n)
        out = tmp_path / f"scores{n}.csv"
        assert _score(capsys, data / "manifest.csv", model, out)[0] == 0
        assert forks.count == n - 1
        results.append(out.read_bytes())
    assert results[0].count(b"\n") == 7
    assert results[1] == results[0] and results[2] == results[0]


def _put_nan(path):
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))


def _dim_5(path):
    header = b"MILF" + struct.pack("<II", 2, 5)
    path.write_bytes(header + np.ones((2, 5), dtype="<f4").tobytes())


_BREAKS = {
    "missing file": lambda path: path.unlink(),
    "bad magic": lambda path: path.write_bytes(b"XXXX" + path.read_bytes()[4:]),
    "truncated payload": lambda path: path.write_bytes(path.read_bytes()[:-3]),
    "non-finite value": _put_nan,
    "dim differs from the first bag's": _dim_5,
}


@pytest.mark.parametrize("kind", sorted(_BREAKS))
@pytest.mark.parametrize(
    "bad",
    [["neg_0000"], ["neg_0003"], ["neg_0001", "neg_0002"], ["pos_0001", "neg_0003"]],
    ids=["chunk 2", "chunk 3", "chunks 2 and 3", "chunks 1 and 3"],
)
def test_score_failure_in_any_chunk_gives_the_serial_message(tmp_path, cohort, forks, capsys,
                                                             kind, bad):
    data, model = cohort
    for bag_id in bad:
        _BREAKS[kind](data / f"{bag_id}.milf")
    results = []
    for n in (1, 3):
        forks.use(n)
        out = tmp_path / f"scores{n}.csv"
        results.append(_score(capsys, data / "manifest.csv", model, out))
        assert not out.exists()
    (code1, out1, err1), (code3, out3, err3) = results
    assert code1 == code3 == 1
    assert (out3, err3) == (out1, err1)
    assert err1.startswith("error: ") and bad[0] in err1
    assert all(later not in err1 for later in bad[1:])
    assert forks.count == 2


def test_score_model_dim_mismatch_gives_the_serial_message(tmp_path, cohort, forks, capsys):
    data, _ = cohort
    model = tmp_path / "m4.milm"
    save_checkpoint(init_params(4, 4, Rng(1)), model)
    errors = []
    for n in (1, 2, 3):
        forks.use(n)
        code, _, err = _score(capsys, data / "manifest.csv", model, tmp_path / "s.csv")
        assert code == 1
        assert not (tmp_path / "s.csv").exists()
        errors.append(err)
    assert errors == ["error: bag 'pos_0000' has dim 3, model expects 4\n"] * 3


def test_score_worker_killed_exits_1_without_traceback(tmp_path, cohort, forks, capsys,
                                                       monkeypatch):
    data, model = cohort
    parent = os.getpid()
    real = cli.score_dataset

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(cli, "score_dataset", dies_in_a_child)
    forks.use(2)
    out = tmp_path / "s.csv"
    code, _, err = _score(capsys, data / "manifest.csv", model, out)
    assert code == 1
    assert err.startswith("error: worker process ") and err.endswith(
        " was killed by signal 9 before sending its result\n"
    )
    assert not out.exists()
