import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

TEST = "tests/test_toy.py::test_double"


@pytest.fixture
def toy(tmp_path):
    """A two-line module and its one test, laid out as the tool copies them."""
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "toy.py").write_text("def double(x):\n    return 2 * x\n")
    (tmp_path / "tests" / "test_toy.py").write_text(
        "from toy import double\n\n\ndef test_double():\n    assert double(3) == 6\n")
    (tmp_path / "pyproject.toml").write_text('[tool.pytest.ini_options]\ntestpaths = ["tests"]\n')
    return tmp_path


@pytest.mark.parametrize(
    "old, new, status",
    [("2 * x", "3 * x", 0), ("2 * x", "x + x", 1), ("4 * x", "3 * x", 2)],
    ids=["killed", "survivor", "stale"],
)
def test_exit_status(toy, capsys, old, new, status):
    assert mutants.main([mutants.Mutant("src/toy.py", old, new, (TEST,))], toy) == status
    verdict = {0: "killed: ", 1: "SURVIVED ['" + TEST, 2: "STALE src/toy.py"}[status]
    assert capsys.readouterr().out.startswith(verdict)


def test_seeded_table_is_current():
    assert mutants.stale(mutants.MUTANTS, ROOT) == []
