"""The known outcome of `declc check` on each witness program of
`tests/witnesses/`: an ordering question of `contract.py` or a fixed
divergence, with the report that `declc check -v FILE` prints today.

Each file's header comment states its outcome (`// outcome: agree` or
`diverge`) and its report, one `// > ` line per printed line, with FILE as
the file's name.  The report is pinned whole, or, when the header says that
some lines depend on Python's stack depth, as the lines that do not, in
order.  A divergence recorded here is a known defect, not an approved one:
a change that moves an outcome edits its file's header."""

from pathlib import Path

import pytest

from declc.cli import main

WITNESSES = Path(__file__).parent / "witnesses"
WHOLE = "// declc check -v FILE reports:"


def expected(path: Path):
    """The outcome, the report lines and whether the report is whole, as
    the header of the witness at path states them."""
    header = [line for line in path.read_text(encoding="utf-8").splitlines()
              if line.startswith("//")]
    outcome = next(line.split(": ", 1)[1] for line in header
                   if line.startswith("// outcome: "))
    report = [line[len("// > "):] for line in header if line.startswith("// > ")]
    return outcome, report, WHOLE in header


@pytest.mark.parametrize("name", sorted(p.name for p in WITNESSES.glob("*.hc")))
def test_witness_report(capsys, name):
    path = WITNESSES / name
    outcome, report, whole = expected(path)
    code = main(["check", "-v", str(path)])
    lines = capsys.readouterr().out.replace(str(path), name).splitlines()
    assert outcome in ("agree", "diverge")
    assert code == (0 if outcome == "agree" else 3)
    if whole:
        assert lines == report
    else:
        rest = iter(lines)
        assert all(line in rest for line in report), lines
