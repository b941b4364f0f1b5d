"""`fsro` command-line error paths: a bad input is `error: ...` and exit 2."""

from fsro.cli import main


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_missing_dataset_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, err = _run(["run", "--dataset", str(missing), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err
    assert not (tmp_path / "out").exists()


def test_non_utf8_dataset_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"a,b,label\n1,2,\xe9\n3,4,x\n")
    code, err = _run(["run", "--dataset", str(data), "--out", str(tmp_path / "out")],
                     capsys)
    assert code == 2
    assert err.startswith("error: ") and str(data) in err
    assert "UTF-8" in err
    assert not (tmp_path / "out").exists()
