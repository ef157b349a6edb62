"""Collects acceptance-test outcomes and prints one line per criterion
at the end of the run, and holds the suite's shared bag-file writer."""

import re

from rankmil.data import write_feature_file, write_manifest


def write_bags(out_dir, bags):
    """Write ``bags`` as one binary feature file each plus
    ``manifest.csv`` in ``out_dir``; returns the manifest's path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for bag in bags:
        rel = f"{bag.bag_id}.milf"
        write_feature_file(out_dir / rel, bag.features)
        rows.append((bag.bag_id, bag.label, rel))
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest


_CRITERIA = {
    1: "loss correctness",
    2: "gradient fidelity",
    3: "metric oracle equivalence",
    4: "Pearson correctness",
    5: "end-to-end learning",
    6: "ranking-vs-regression contrast",
    7: "determinism",
    8: "format robustness",
}

_NODE = re.compile(r"test_acceptance\.py::test_c(\d+)")
_outcomes: dict[int, bool] = {}


def pytest_runtest_logreport(report):
    match = _NODE.search(report.nodeid)
    if not match:
        return
    n = int(match.group(1))
    if report.failed:
        _outcomes[n] = False
    elif report.when == "call" and report.passed and n not in _outcomes:
        _outcomes[n] = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_outcomes):
        title = _CRITERIA.get(n, "unknown")
        status = "PASS" if _outcomes[n] else "FAIL"
        terminalreporter.write_line(f"criterion {n} ({title}): {status}")
