"""scripts/summarize_run.py: per-cell summaries and the comparison of two
runs by mean difference and z-score."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "summarize_run", ROOT / "scripts" / "summarize_run.py")
summarize_run = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(summarize_run)


def _csv(path, metric, rows):
    """A harness-style CSV: two comment lines, a header, then
    (sweep value, method, value) rows as trials."""
    lines = ["# bdr-schema=1", "# experiment=bdr_vs_power",
             f"experiment,sweep_value,trial,method,{metric}"]
    lines += [f"bdr_vs_power,{s},{t},{m},{x}"
              for t, (s, m, x) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    rc = summarize_run.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_summary_prints_each_cell(tmp_path, capsys):
    path = _csv(tmp_path / "a.csv", "bdr",
                [(20, "optimized", 0.1), (20, "optimized", 0.3),
                 (10, "no_ris", 0.5)])
    rc, out, _ = _run(capsys, path)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "bdr_vs_power: bdr over 3 rows"
    # sorted by sweep value, then method
    assert "sweep=      10  no_ris     mean=0.5  sd=0  n=1" in lines[1]
    assert "mean=0.2  sd=0.141  n=2" in lines[2]


def test_against_prints_mean_difference_and_z(tmp_path, capsys):
    # means 2 and 1, each with sd sqrt(2) over two trials: the standard
    # error is sqrt(2/2 + 2/2) = sqrt(2), so z = 1/sqrt(2)
    new = _csv(tmp_path / "new.csv", "bdr",
               [(10, "optimized", 1.0), (10, "optimized", 3.0),
                (10, "no_ris", 4.0)])
    old = _csv(tmp_path / "old.csv", "bdr",
               [(10, "optimized", 0.0), (10, "optimized", 2.0),
                (10, "no_ris", 1.0)])
    rc, out, _ = _run(capsys, new, "--against", old)
    assert rc == 0
    lines = out.splitlines()
    assert "no_ris     diff=+3  z=+inf  n=1/1" in lines[1]
    assert "optimized  diff=+1  z=+0.71  n=2/2" in lines[2]
    assert lines[-1] == "max |z| = inf over 2 cells"


def test_against_itself_is_all_zero(tmp_path, capsys):
    path = _csv(tmp_path / "a.csv", "milliseconds",
                [(10, "optimized", 2.0), (10, "optimized", 5.0),
                 (10, "no_ris", 1.0)])
    rc, out, _ = _run(capsys, path, "--against", path)
    assert rc == 0
    assert out.count("diff=+0  z=+0.00") == 2
    assert out.splitlines()[-1] == "max |z| = 0.00 over 2 cells"


@pytest.mark.parametrize("metric, rows, message", [
    ("bdr", [(10, "optimized", 0.1), (20, "optimized", 0.1)],
     "cells differ"),
    ("min_kgr_bits", [(10, "optimized", 0.1)], "metric bdr against"),
])
def test_against_refuses_runs_that_do_not_match(tmp_path, capsys, metric,
                                                rows, message):
    new = _csv(tmp_path / "new.csv", "bdr", [(10, "optimized", 0.1)])
    old = _csv(tmp_path / "old.csv", metric, rows)
    rc, _, err = _run(capsys, new, "--against", old)
    assert rc == 1
    assert message in err


def test_a_file_without_rows_or_metric_exits_1(tmp_path, capsys):
    empty = _csv(tmp_path / "empty.csv", "bdr", [])
    assert _run(capsys, empty)[0] == 1
    other = _csv(tmp_path / "other.csv", "seconds", [(10, "optimized", 1.0)])
    rc, _, err = _run(capsys, other)
    assert rc == 1 and "no known metric column" in err
    # each of these once ended in a traceback: FileNotFoundError, KeyError,
    # and statistics.stdev's AttributeError on a nan (Python 3.11); now
    # each is one line naming the file
    no_method = tmp_path / "no_method.csv"
    no_method.write_text("sweep_value,bdr\n10,0.1\n", encoding="utf-8")
    nan = _csv(tmp_path / "nan.csv", "bdr",
               [(10, "optimized", 0.1), (10, "optimized", "nan")])
    for path, message in (
            (tmp_path / "missing.csv", "No such file or directory"),
            (no_method, "no method column"),
            (nan, "data row 2: bdr 'nan' is not a finite number")):
        assert _run(capsys, str(path)) == (1, "", f"{path}: {message}\n")
