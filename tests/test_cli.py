import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import PROGRAMS
from declc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def prog(name):
    return str(PROGRAMS / name)


def test_parse_ok(capsys):
    code, out, _ = run_cli(capsys, "parse", prog("deep_deref.hc"))
    assert code == 0
    assert "**x := p[i];" in out


def test_parse_reports_check_errors(capsys):
    code, _, err = run_cli(capsys, "parse", prog("bad_types.hc"))
    assert code == 1
    assert "error" in err


def test_parse_reports_syntax_errors(tmp_path, capsys):
    bad = tmp_path / "syntax.hc"
    bad.write_text("int x = ;")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1 and "error" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent.hc")
    assert code == 1 and err


def test_graph_edges(capsys):
    code, out, _ = run_cli(capsys, "graph", prog("deep_deref.hc"))
    assert code == 0
    assert "x -> *x" in out and "*x -> **x" in out
    assert "i -> p[i]" in out and "p -> p[i]" in out


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--dot", prog("deep_deref.hc"))
    assert code == 0
    assert out.startswith("digraph") and '"x" -> "*x"' in out


def test_emit_to_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "emit", prog("deep_deref.hc"))
    assert code == 0 and "init_ptr_ptr_x" in out
    dest = tmp_path / "lowered.txt"
    code, _, _ = run_cli(capsys, "emit", prog("deep_deref.hc"),
                         "-o", str(dest))
    assert code == 0 and dest.read_text() == out


def test_run_prints_memory(capsys):
    code, out, _ = run_cli(capsys, "run", prog("deep_deref.hc"))
    assert code == 0
    assert "target = 41" in out
    assert "p[0] = 7" in out


def test_run_runtime_fault_exit_code(tmp_path, capsys):
    bad = tmp_path / "fault.hc"
    bad.write_text("int *p; int x;\nvoid main() { x = *p; }")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2 and "runtime fault" in err


def test_run_trace_file_is_jsonl(tmp_path, capsys):
    out_path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, "run", prog("deep_deref.hc"),
                         "--trace", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines
    for line in lines:
        e = json.loads(line)
        assert list(e) == ["seq", "kind", "lvalue", "cell", "detail"]


def test_run_trace_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "run", prog("watchers.hc"),
                           "--trace", "-")
    assert code == 0 and '"kind": "MonitorFired"' in out


def test_trace_buffer_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECLC_TRACE_BUFFER", "4")
    out_path = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, "run", prog("deep_deref.hc"),
                         "--trace", str(out_path))
    assert code == 0 and out_path.read_text().splitlines()


def test_check_agreement(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "0", "--count", "5")
    assert code == 0
    assert "5/5 seeds agree" in out


@pytest.mark.parametrize("seed", [1500452, 10500791, 30601386, 40701388])
def test_check_huge_int_seeds_agree(seed):
    """These generated programs grow an integer past the interpreter's
    int-to-str digit limit; check renders it in hex and still agrees."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "declc.cli", "check", "--seed", str(seed),
         "--count", "1"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "1/1 seeds agree" in proc.stdout


def test_check_verbose(capsys):
    code, out, _ = run_cli(capsys, "check", "--seed", "3", "--count", "2",
                           "-v")
    assert code == 0 and "seed 3: ok" in out
