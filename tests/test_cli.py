import io
import json

import numpy as np
import pytest

from superpbw import cli, serialize_definition, load_bundle
from superpbw.checks import CHECKS, CheckReport
from superpbw.export import _matrix_lines

GOOD = """\
algebra tiny
prime 3
generator e even
split zero :
representation triv zero 1
repbasis triv : 0
"""


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_catalog_name(capsys):
    code, out, err = _run(capsys, ["validate", "abelian1-p3"])
    assert code == 0
    assert "ok:" in out and "prime 3" in out


def test_validate_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "tiny.def"
    path.write_text(GOOD)
    code, out, _ = _run(capsys, ["validate", str(path)])
    assert code == 0 and "tiny" in out
    monkeypatch.setattr("sys.stdin", io.StringIO(GOOD))
    code, out, _ = _run(capsys, ["validate", "-"])
    assert code == 0 and "tiny" in out


def test_validate_rejects_bad_input(capsys):
    code, _, err = _run(capsys, ["validate", "no-such-catalog-entry"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv", [["validate"], ["check", "--only", "pbw-count"], ["export", "--what", "coproduct"]]
)
def test_an_unreadable_file_exits_two_with_one_error_line(tmp_path, capsys, argv):
    code, out, err = _run(capsys, argv + [str(tmp_path)])
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {tmp_path}: ")


def test_validate_rejects_prime_two(tmp_path, capsys):
    path = tmp_path / "two.def"
    path.write_text("algebra a\nprime 2\ngenerator e even\n")
    code, _, err = _run(capsys, ["validate", str(path)])
    assert code == 2
    assert "prime" in err


def test_prime_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("SUPERPBW_MAX_PRIME", "3")
    code, _, err = _run(capsys, ["validate", "sl2-p5"])
    assert code == 2
    assert "SUPERPBW_MAX_PRIME" in err
    monkeypatch.setenv("SUPERPBW_MAX_PRIME", "5")
    code, _, _ = _run(capsys, ["validate", "sl2-p5"])
    assert code == 0


def test_check_text_output(capsys):
    code, out, _ = _run(
        capsys, ["check", "abelian1-p3", "--only", "pbw-count,validate", "--samples", "3"]
    )
    assert code == 0
    assert "PASS" in out
    assert "pbw-count" in out and "validate" in out
    assert "0 failed" in out


def test_check_refuses_an_empty_selection(capsys):
    code, out, err = _run(capsys, ["check", "sl2-p3", "--only", ","])
    assert code == 2
    assert out == "" and "no checks selected" in err


def test_check_runs_a_repeated_name_once(capsys):
    # sl2-p3 has three (split, rep) pairs, so phi reports three times
    code, out, _ = _run(capsys, ["check", "sl2-p3", "--only", "phi,phi", "--only", "phi"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 and lines[-1] == "3 passed, 0 failed, 0 skipped"


def test_check_unknown_name_lists_known(capsys):
    code, _, err = _run(capsys, ["check", "abelian1-p3", "--only", "bogus"])
    assert code == 2
    assert "bogus" in err and "pbw-count" in err


def test_check_json_is_byte_stable(capsys):
    argv = [
        "check",
        "oddline-p3",
        "--only",
        "pbw-count,mu-product",
        "--format",
        "json",
        "--samples",
        "4",
    ]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    code, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["algebra"] == "oddline-p3"
    assert {r["check"] for r in doc["reports"]} == {"pbw-count", "mu-product"}
    assert all("seconds" not in r for r in doc["reports"])


def test_check_exit_one_on_failure(capsys, monkeypatch):
    def broken(bundle, opts):
        return [
            CheckReport(
                check="pbw-count",
                algebra=bundle.algebra.name,
                split="",
                representation="",
                status="fail",
                witness="forced by the test",
            )
        ]

    monkeypatch.setitem(CHECKS, "pbw-count", broken)
    code, out, _ = _run(capsys, ["check", "abelian1-p3", "--only", "pbw-count"])
    assert code == 1
    assert "FAIL" in out


def test_catalog_listing_and_dump(capsys):
    code, out, _ = _run(capsys, ["catalog"])
    assert code == 0
    assert "abelian1-p3" in out and "sl2-p5" in out
    code, out, _ = _run(capsys, ["catalog", "--dump", "heis-p3"])
    assert code == 0
    assert out == serialize_definition(load_bundle("heis-p3"))


def test_export_tables(capsys):
    code, out, _ = _run(capsys, ["export", "abelian1-p3", "--what", "multiplication"])
    assert code == 0
    assert "e^2 . e = 0" in out
    assert "e . e = e^2" in out
    code, out, _ = _run(capsys, ["export", "abelian1-p3", "--what", "coproduct"])
    assert code == 0
    assert "e^2 : (1 | e^2) + 2*(e | e) + (e^2 | 1)" in out
    code, out, _ = _run(capsys, ["export", "gl11-p3", "--what", "psi-gram"])
    assert code == 0
    assert "rank" in out
    code, out, _ = _run(capsys, ["export", "gl11-p3", "--what", "phi-matrix"])
    assert code == 0
    assert "determinant" in out


def test_matrix_lines_pad_every_entry_to_the_widest_one():
    # the width comes from the least and the largest entry, so a negative
    # entry keeps its sign inside the column
    assert _matrix_lines(np.array([[0, -12, 3], [100, 7, -1]])) == [
        "    0 -12   3",
        "  100   7  -1",
    ]
    assert _matrix_lines([[4]]) == ["  4"]


def test_export_output_is_deterministic(capsys):
    argv = ["export", "heis-p3", "--what", "multiplication"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_export_unknown_table(capsys):
    # argparse enforces the table choices itself
    with pytest.raises(SystemExit) as info:
        cli.main(["export", "abelian1-p3", "--what", "nonsense"])
    assert info.value.code == 2
    assert "nonsense" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--level", "-1"], ["--samples", "-3"], ["--engine-cases", "-5"]]
)
def test_check_refuses_counts_that_check_nothing(capsys, flags):
    code, out, err = _run(capsys, ["check", "sl2-p3", "--only", "engine", *flags])
    assert code == 2
    assert not out and err.startswith("error: ")
