"""The mutation harness's bounds, on a toy tree with a two-line suite."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def toy_tree(root: Path, body: str) -> Path:
    (root / "src").mkdir(parents=True)
    (root / "src" / "toy.py").write_text(f"import time\n\n\ndef one():\n    {body}\n")
    (root / "test_toy.py").write_text("from toy import one\n\n\ndef test_one():\n"
                                      "    assert one() == 1\n")
    return root


@pytest.fixture
def quick(monkeypatch):
    # the toy suite needs no plugins, and each mutant's bound is 5 unmutated runs
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    monkeypatch.setattr(mutants, "MUTANT_FLOOR_S", 0.0)
    monkeypatch.setattr(mutants, "MUTANT_FACTOR", 5.0)


def test_a_hung_mutant_is_killed_by_timeout(tmp_path, capsys, quick):
    tree = toy_tree(tmp_path, "return 1")
    entries = [("src/toy.py", "return 1", "time.sleep(60)", "test_toy.py::test_one"),
               ("src/toy.py", "return 1", "return 2", "test_toy.py::test_one")]
    assert mutants.main(tree, entries) == 0
    out = capsys.readouterr().out
    assert "[ 1] killed (timeout) src/toy.py" in out
    assert "     detail: tier-1 ran past " in out
    assert "[ 2] killed   src/toy.py" in out
    assert "     first failure: test_toy.py::test_one" in out
    assert out.endswith("killed 2/2\n")


def test_an_unmutated_run_past_its_bound_is_a_harness_error(tmp_path, capsys, quick,
                                                            monkeypatch):
    monkeypatch.setattr(mutants, "TIMEOUT_S", 0.2)
    tree = toy_tree(tmp_path, "time.sleep(60)")
    assert mutants.main(tree, [("src/toy.py", "sleep(60)", "sleep(0)", "test_toy.py")]) == 2
    assert capsys.readouterr().err == ("error: tier-1 does not pass on the unmutated tree: "
                                       "tier-1 ran past 0.2 s\n")
