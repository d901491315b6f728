"""tools/outputs.py: a dump compares identical to a second dump of the same
code, and ``compare`` reports each kind of difference."""

import importlib.util
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outputs_tool", ROOT / "tools" / "outputs.py")
outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outputs)


def test_mc_dump_repeats_bit_for_bit(tmp_path, capsys):
    for name in ("a", "b"):
        outputs.mc(str(tmp_path / name), seeds=[1])
    assert outputs.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    # per workload: the scalars, the inventory counts and the curves
    assert capsys.readouterr().out.splitlines()[-1] == "6 files identical"


def test_ledgers_dump_repeats_bit_for_bit(tmp_path, capsys):
    for name in ("a", "b"):
        outputs.ledgers(str(tmp_path / name), seeds=[1])
    assert outputs.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    # the calibration and the episode, order and fill tables
    assert capsys.readouterr().out.splitlines()[-1] == "4 files identical"


# the README's fixed:-1e4 run overflows its exponential utility, a known fault
# of the Monte Carlo summary that this case records as it is
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning",
                            "ignore:invalid value encountered in subtract:RuntimeWarning")
def test_readme_dump_repeats_bit_for_bit(tmp_path, capsys):
    for name in ("a", "b"):
        outputs.readme(str(tmp_path / name))
    assert outputs.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "40 files identical"


def test_compare_reports_cells_maxima_and_missing_files(tmp_path, capsys):
    for name, cell, entry in (("a", "2.0", 4.0), ("b", "2.5", 4.0 + 1e-9)):
        root = tmp_path / name
        root.mkdir()
        (root / "t.csv").write_text(f"x,y\n1.0,{cell}\n3.0,text\n")
        np.save(root / "m.npy", np.array([[1.0, np.nan], [np.inf, entry]]))
        (root / "same.json").write_text('{"k": [1, 2]}\n')
    (tmp_path / "a" / "only.txt").write_text("gone\n")
    assert outputs.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"only.txt: only in {tmp_path / 'a'}"
    npy_line, csv_line = out[1], out[2]
    assert npy_line.startswith("m.npy: 1 numeric cells differ, max abs 1e-09, max rel 2.5e-10;")
    assert csv_line == ("t.csv: 1 numeric cells differ, max abs 0.5, max rel 0.2; "
                        "0 other differences")
    assert out[-1] == "1 files identical"


def test_compare_names_shape_and_text_changes(tmp_path, capsys):
    for name, rows, word in (("a", 2, "apple"), ("b", 3, "pear")):
        root = tmp_path / name
        root.mkdir()
        np.save(root / "m.npy", np.zeros((rows, 2)))
        (root / "s.stdout").write_text(f"fruit {word}\n")
    assert outputs.compare(str(tmp_path / "a"), str(tmp_path / "b")) == 1
    out = capsys.readouterr().out
    assert "shape (2, 2) != (3, 2)" in out
    assert "line 1 col 2: 'apple' != 'pear'" in out


def test_dump_refuses_an_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        outputs.main(["dump", str(ROOT), "unused", "nope"])
    assert exc.value.code == 2
    assert "unknown case 'nope'" in capsys.readouterr().err
