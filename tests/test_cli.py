"""End-to-end runs of the command-line entry point via main(argv)."""

import csv
import functools
import json
import sys
from fractions import Fraction

import pytest

from qinfty import cantor, faithfulness, rigor
from qinfty.cli import main
from qinfty.qvector import QVectorSpec


@pytest.fixture()
def qvec_files(tmp_path):
    paths = {}
    for name, doc in [
        ("luroth", {"family": "luroth"}),
        ("geometric", {"family": "geometric", "ratio": "1/2"}),
        ("powerlaw", {"family": "powerlaw", "m0": "2"}),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    return paths


def test_encode_pinned_output(qvec_files, capsys):
    rc = main(["encode", "--qvec", qvec_files["luroth"], "--x", "2/3", "--depth", "5"])
    assert rc == 0
    assert capsys.readouterr().out == "[2,0,0,0,0]\n"


def test_decode_pinned_output(qvec_files, capsys):
    rc = main(["decode", "--qvec", qvec_files["luroth"], "--digits", "[1,0]"])
    assert rc == 0
    assert capsys.readouterr().out == '{"left":"1/2","length":"1/12"}\n'


def test_encode_decode_consistency(qvec_files, capsys):
    rc = main(["encode", "--qvec", qvec_files["geometric"], "--x", "3/7", "--depth", "6"])
    assert rc == 0
    digits = json.loads(capsys.readouterr().out)
    assert len(digits) == 6
    rc = main(["decode", "--qvec", qvec_files["geometric"], "--digits", json.dumps(digits)])
    assert rc == 0
    from fractions import Fraction

    doc = json.loads(capsys.readouterr().out)
    left = Fraction(doc["left"])
    length = Fraction(doc["length"])
    assert left <= Fraction(3, 7) < left + length


def test_cover_writes_certificate(qvec_files, tmp_path, capsys):
    out = tmp_path / "cert.json"
    rc = main([
        "cover", "--qvec", qvec_files["geometric"],
        "--a", "digits:[1,1,1]", "--b", "digits:[1,3]",
        "--alpha", "0.5", "--delta", "0.2", "--eps", "1e-6",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    for key in ("interval", "params", "blocks", "residuals",
                "alpha_volume_upper", "bound_rhs"):
        assert key in doc
    assert doc["params"]["eps_res"] == "1/1000000"
    assert "alpha-volume" in capsys.readouterr().out


def test_cover_lazy_stream_head(qvec_files, tmp_path):
    out = tmp_path / "lazy.json"
    rc = main([
        "cover", "--qvec", qvec_files["luroth"], "--a", "0", "--b", "end",
        "--alpha", "1/2", "--delta", "1/5",
        "--mode", "lazy_stream", "--max-blocks", "7", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["stream_head"]) == 7
    assert all("first" in blk and "last" in blk for blk in doc["stream_head"])


def test_cover_lazy_stream_without_tail_is_finite(qvec_files, tmp_path, capsys):
    # [1, 3) on Luroth is one sibling run: no partitioned tail, so the
    # stream ends after its one finite block
    out = tmp_path / "lazy.json"
    rc = main([
        "cover", "--qvec", qvec_files["luroth"],
        "--a", "digits:[1]", "--b", "digits:[3]", "--alpha", "1/2", "--delta", "1/5",
        "--mode", "lazy_stream", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["stream_head"] == [{"prefix": [], "first": 1, "last": 2}]
    assert doc["blocks"] == doc["stream_head"]
    capsys.readouterr()


def test_check_condition_holds(qvec_files, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc = main([
        "check-condition", "--qvec", qvec_files["geometric"],
        "--alpha", "0.5", "--delta", "0.1",
        "--N", "17", "--n-max", "30", "--M-max", "50",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "holds_on_region"
    assert len(doc["margins"]) == 13
    assert "holds_on_region" in capsys.readouterr().out


def test_check_condition_precision_is_first_rung(qvec_files, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc = main([
        "check-condition", "--qvec", qvec_files["geometric"],
        "--alpha", "0.5", "--delta", "0.1",
        "--N", "17", "--n-max", "20", "--M-max", "30",
        "--precision-bits", "128", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "holds_on_region"
    assert doc["precision_bits"] == 128
    capsys.readouterr()


def test_check_condition_violated_still_exit_zero(qvec_files, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc = main([
        "check-condition", "--qvec", qvec_files["powerlaw"],
        "--alpha", "2/5", "--delta", "1/10",
        "--N", "50", "--n-max", "120", "--M-max", "200",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["outcome"] == "violated"
    assert doc["witness"] == {"n": 51, "M": 51}
    capsys.readouterr()


def test_scan_condition_csv(qvec_files, tmp_path):
    path = tmp_path / "margins.csv"
    rc = main([
        "scan-condition", "--qvec", qvec_files["geometric"],
        "--alpha", "2/5", "--delta", "1/20",
        "--n-grid", "10,100", "--M-grid", "100,inf",
        "--csv", str(path),
    ])
    assert rc == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "M", "lhs_lower", "rhs_upper", "margin"]
    assert len(rows) == 5
    assert {r[1] for r in rows[1:]} == {"100", "inf"}


@pytest.mark.parametrize("grids", [["--n-grid", "10", "--M-grid=-3,-1,inf"],
                                   ["--n-grid=-1", "--M-grid", "5,inf"]], ids=["M", "n"])
def test_scan_condition_rejects_negative_windows(qvec_files, tmp_path, capsys, grids):
    path = tmp_path / "m.csv"
    rc = main(["scan-condition", "--qvec", qvec_files["luroth"], "--alpha", "2/5",
               "--delta", "1/10", *grids, "--csv", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize(
    "bad",
    [["--N", "-5"], ["--L", "0"], ["--L", "1"], ["--alpha", "1/5"], ["--delta", "0"]],
    ids=["negative-N", "zero-L", "unit-L", "alpha-below-delta", "zero-delta"],
)
def test_cantor_build_refuses_bad_parameters_with_one_error_line(qvec_files, tmp_path, capsys, bad):
    args = {"--alpha": "2/5", "--delta": "1/5", "--L": "1/2", "--N": "10"}
    args.update([bad])
    path = tmp_path / "cantor.json"
    rc = main(["cantor", "build", "--qvec", qvec_files["powerlaw"], "--depth", "3",
               *(x for kv in args.items() for x in kv), "--out", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1
    assert not path.exists()


def test_check_condition_refuses_an_empty_region(qvec_files, tmp_path, capsys):
    path = tmp_path / "verdict.json"
    rc = main(["check-condition", "--qvec", qvec_files["luroth"], "--alpha", "9/10",
               "--delta", "1/5", "--N", "0", "--n-max", "0", "--M-max", "0", "--out", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1
    assert not path.exists()


def test_cover_refuses_negative_max_blocks(qvec_files, tmp_path, capsys):
    path = tmp_path / "lazy.json"
    rc = main(["cover", "--qvec", qvec_files["luroth"], "--a", "0", "--b", "end",
               "--alpha", "1/2", "--delta", "1/5", "--mode", "lazy_stream",
               "--max-blocks", "-1", "--out", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1
    assert not path.exists()


def test_cantor_pipeline(qvec_files, tmp_path, capsys):
    spec_path = tmp_path / "cantor.json"
    rc = main([
        "cantor", "build", "--qvec", qvec_files["powerlaw"],
        "--alpha", "2/5", "--delta", "1/5", "--L", "1/2",
        "--depth", "1", "--out", str(spec_path),
    ])
    assert rc == 0
    built = json.loads(spec_path.read_text())
    assert built["levels"][0]["k"] == 623
    assert built["levels"][0]["M"] == 28
    assert "level 1:" in capsys.readouterr().out

    vol_path = tmp_path / "vol.csv"
    rc = main([
        "cantor", "volume", "--spec", str(spec_path),
        "--s-grid", "1/10,1/5", "--csv", str(vol_path),
    ])
    assert rc == 0
    with open(vol_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["family", "s", "volume_lo", "volume_hi"]
    assert len(rows) == 5
    capsys.readouterr()

    rc = main(["cantor", "measure", "--spec", str(spec_path), "--address", "[630]"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["address"] == [630]
    from fractions import Fraction

    assert Fraction(doc["mass_lo"]) <= Fraction(doc["mass_hi"])

    gap_path = tmp_path / "gap.json"
    rc = main([
        "cantor", "gap", "--spec", str(spec_path),
        "--s-grid", "1/20,1/10,3/20,1/5,1/4,3/10,7/20,2/5",
        "--out", str(gap_path),
    ])
    assert rc == 0
    doc = json.loads(gap_path.read_text())
    assert "phi_split" in doc and "block_union" in doc
    capsys.readouterr()


def test_selftest_passes(qvec_files, capsys):
    rc = main(["selftest", "--qvec", qvec_files["geometric"]])
    assert rc == 0
    out = capsys.readouterr().out
    assert "invariant groups passed, 0 failed" in out


def test_selftest_luroth(qvec_files, capsys):
    rc = main(["selftest", "--qvec", qvec_files["luroth"]])
    assert rc == 0
    capsys.readouterr()


def test_selftest_interval_mode_family(qvec_files, capsys):
    # block boundaries are irrational here; the coverage chain must
    # tolerate enclosure-width slivers between adjacent blocks
    rc = main(["selftest", "--qvec", qvec_files["powerlaw"]])
    assert rc == 0
    assert "0 failed" in capsys.readouterr().out


def test_seed_only_on_selftest(qvec_files, capsys):
    assert main(["encode", "--qvec", qvec_files["luroth"], "--x", "1/2",
                 "--depth", "3", "--seed", "3"]) == 1
    assert main(["selftest", "--qvec", qvec_files["geometric"], "--seed", "3"]) == 0
    capsys.readouterr()


def test_errors_exit_one(qvec_files, tmp_path, capsys):
    rc = main(["encode", "--qvec", str(tmp_path / "nope.json"),
               "--x", "1/2", "--depth", "3"])
    assert rc == 1
    assert "error (" in capsys.readouterr().err

    rc = main(["cover", "--qvec", qvec_files["luroth"], "--a", "oops",
               "--b", "end", "--alpha", "1/2", "--delta", "1/5"])
    assert rc == 1
    capsys.readouterr()

    rc = main(["check-condition", "--qvec", qvec_files["luroth"],
               "--alpha", "2", "--delta", "1/5",
               "--N", "5", "--n-max", "10", "--M-max", "10"])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--digits", "5"],
        ["decode", "--digits", "[1.5]"],
        ["cover", "--a", "digits:7", "--b", "end", "--alpha", "1/2", "--delta", "1/5"],
        ["encode", "--x", "1/0", "--depth", "3"],
        ["decode", "--digits", "{}"],
        ["cover", "--a", 'digits:{"1": 2}', "--b", "end", "--alpha", "1/2", "--delta", "1/5"],
    ],
    ids=["decode-scalar-digits", "decode-float-digit", "cover-scalar-digits", "encode-zero-denominator",
         "decode-object-digits", "cover-object-digits"],
)
def test_malformed_input_exits_one_with_one_error_line(qvec_files, capsys, argv):
    rc = main(argv[:1] + ["--qvec", qvec_files["luroth"]] + argv[1:])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (")
    assert captured.err.count("\n") == 1


def test_cover_to_end_on_an_enclosure_family_exits_one_with_one_error_line(qvec_files, capsys):
    # the known b = end defect of enclosure families: a bare NotImplementedError
    rc = main(["cover", "--qvec", qvec_files["powerlaw"], "--a", "digits:[0,3]", "--b", "end",
               "--alpha", "1/2", "--delta", "1/5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error (NotImplementedError): not implemented for this input\n"


_LEVEL = {"k": 1, "M": 2, "gamma_lo": "1/2", "gamma_hi": "1/2", "eps": "1/100"}
_CANTOR = {"qvec": {"family": "luroth"}, "alpha": "1/2", "delta": "1/5", "L": "1/2", "N": 0,
           "levels": [_LEVEL]}
_DECODE = ["decode", "--digits", "[1]", "--qvec"]
_MEASURE = ["cantor", "measure", "--address", "[1]", "--spec"]


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["decode", "--digits", "[1]", "--qvec"], [1]),
        (["decode", "--digits", "[1]", "--qvec"], "luroth"),
        (["cantor", "measure", "--address", "[1]", "--spec"], [1]),
        (["cantor", "measure", "--address", "[1]", "--spec"], {"qvec": []}),
        (["cantor", "measure", "--address", "[1]", "--spec"],
         {"qvec": {"family": "luroth"}, "alpha": "1/2", "delta": "1/5", "L": "1/2", "N": 0,
          "levels": 5}),
        (["cantor", "measure", "--address", "[1]", "--spec"],
         {"qvec": {"family": "luroth"}, "alpha": "1/2", "delta": "1/5", "L": "1/2", "N": 0,
          "levels": [[1, 2]]}),
        (_DECODE, {"family": "custom", "weights": 5}),
        (_DECODE, {"family": "custom", "weights": ["1/2", "1/2"], "pad_mass": [1]}),
        (_MEASURE, {**_CANTOR, "N": None}),
        (_MEASURE, {**_CANTOR, "levels": [{**_LEVEL, "k": [1]}]}),
        (_MEASURE, {**_CANTOR, "levels": [{**_LEVEL, "gamma_lo": 1}]}),
        (_MEASURE, {**_CANTOR, "alpha": 0.4}),
        (_MEASURE, {**_CANTOR, "levels": [{**_LEVEL, "eps": "-1/1000"}]}),
        (_MEASURE, {**_CANTOR, "levels": [{**_LEVEL, "eps": "0"}]}),
    ],
    ids=["qvec-list", "qvec-string", "cantor-list", "cantor-qvec-list", "cantor-levels-number",
         "cantor-level-list", "custom-weights-number", "custom-pad-list", "cantor-N-null",
         "cantor-k-list", "cantor-gamma-number", "cantor-alpha-number", "cantor-eps-negative",
         "cantor-eps-zero"],
)
def test_non_object_config_exits_one_with_one_error_line(tmp_path, capsys, argv, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rc = main(argv + [str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1


def test_valid_config_skeleton_reads(tmp_path, capsys):
    # the cases above differ from these documents in one field each
    for argv, doc in ((_DECODE, {"family": "custom", "weights": ["1/2", "1/2"]}), (_MEASURE, _CANTOR)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(argv + [str(path)]) == 0
    capsys.readouterr()


def test_numeric_pad_mass_is_read_as_its_decimal(tmp_path, capsys):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"family": "custom", "weights": ["1/2", "1/2"], "pad_mass": 0.001}))
    assert QVectorSpec.from_json(json.loads(path.read_text())).pad_mass == Fraction(1, 1000)
    assert main(["decode", "--qvec", str(path), "--digits", "[1]"]) == 0
    assert json.loads(capsys.readouterr().out) == {"left": "1/2", "length": "499/1000"}


def test_usage_errors_exit_one(qvec_files, capsys):
    assert main(["encode", "--qvec", qvec_files["luroth"]]) == 1
    assert main(["encode", "--qvec", qvec_files["luroth"], "--x", "1/2",
                 "--depth", "3", "--threads", "0"]) == 1
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(qvec_files, tmp_path, capsys):
    def check(out):
        rc = main(["check-condition", "--qvec", qvec_files["luroth"], "--alpha", "9/10",
                   "--delta", "1/5", "--N", "17", "--n-max", "19", "--M-max", "60",
                   "--out", str(out)])
        return rc, capsys.readouterr().out, out.read_bytes()

    first = check(tmp_path / "first.json")
    assert main(["decode", "--qvec", qvec_files["luroth"]]) == 1  # --digits missing
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert check(tmp_path / "last.json") == first
    assert first[0] == 0 and first[1] == "check-condition: holds_on_region\n"


def test_decode_of_a_long_exact_cylinder_parses_back(qvec_files, capsys):
    # 2^15001 has more decimal digits than Python converts by default
    limit = sys.get_int_max_str_digits()
    assert main(["decode", "--qvec", qvec_files["geometric"], "--digits", "[15000]"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert rigor.parse_frac(doc["left"]) == 1 - Fraction(1, 2**15000)
    assert rigor.parse_frac(doc["length"]) == Fraction(1, 2**15001)
    assert sys.get_int_max_str_digits() == limit


def test_deterministic_outputs(qvec_files, tmp_path, capsys):
    args = ["cover", "--qvec", qvec_files["geometric"],
            "--a", "0", "--b", "digits:[2]",
            "--alpha", "1/2", "--delta", "1/5"]
    first = tmp_path / "c1.json"
    second = tmp_path / "c2.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_precision_flag_respected(qvec_files, capsys):
    rc = main(["decode", "--qvec", qvec_files["powerlaw"],
               "--digits", "[2]", "--precision-bits", "64"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    # interval-mode family: enclosure output, not a bare fraction
    assert set(doc["left"]) == {"lo", "hi", "approx"}


# the (k, M) windows of the README's depth-3 build; assembling them only
# certifies the levels, so these tests skip the level searches
_LEVELS3 = (
    (623, 28),
    (391229168928, 9969947),
    (15077805697091490865457380853356083192456167498956239011839,
     89301548008977962532537502357520384),
)
_GAP_GRID = "1/20,1/10,3/20,1/5,1/4,3/10"


def _assemble3() -> cantor.CantorSpec:
    return cantor.assemble_cantor(QVectorSpec.powerlaw(2), Fraction(2, 5), Fraction(1, 5),
                                  Fraction(1, 2), Fraction(1, 1000), 10, _LEVELS3)


_depth3 = functools.lru_cache(maxsize=None)(_assemble3)


@pytest.fixture()
def cantor3(tmp_path):
    path = tmp_path / "cantor3.json"
    path.write_text(json.dumps(_depth3().to_json()))
    return str(path)


def _csv_at(argv, path, bits) -> bytes:
    assert main(argv + ["--csv", str(path), "--precision-bits", str(bits)]) == 0
    return path.read_bytes()


def test_scan_condition_climbs_past_a_low_first_rung(qvec_files, tmp_path, capsys):
    # at 16 bits the M=1000 bounds of row 50 fall below the M=100 ones
    argv = ["scan-condition", "--qvec", qvec_files["powerlaw"], "--alpha", "2/5",
            "--delta", "1/10", "--n-grid", "50,100,200", "--M-grid", "100,1000,inf"]
    assert _csv_at(argv, tmp_path / "m16.csv", 16) == _csv_at(argv, tmp_path / "m32.csv", 32)
    capsys.readouterr()


def test_cantor_volume_climbs_past_a_low_first_rung(cantor3, tmp_path, capsys):
    # at 64 bits every phi_split volume enclosure reaches below zero
    argv = ["cantor", "volume", "--spec", cantor3, "--s-grid", "1/10,3/20,1/5"]
    assert _csv_at(argv, tmp_path / "v64.csv", 64) == _csv_at(argv, tmp_path / "v128.csv", 128)
    capsys.readouterr()


@pytest.mark.parametrize("bits", [24, 64])
def test_cantor_gap_separates_from_a_low_first_rung(cantor3, tmp_path, capsys, bits):
    path = tmp_path / "gap.json"
    rc = main(["cantor", "gap", "--spec", cantor3, "--s-grid", _GAP_GRID, "--out", str(path),
               "--precision-bits", str(bits)])
    assert rc == 0
    assert capsys.readouterr().out.endswith("separated: True\n")
    doc = json.loads(path.read_text())
    assert doc["phi_split"]["bracket"] == ["1/4", "3/10"]
    assert doc["block_union"]["bracket"] == ["1/20", "1/10"]
    assert doc["separation_certified"] is True


def test_cantor_volume_at_one_on_an_exact_family(qvec_files, tmp_path, capsys):
    spec_path, vol_path = tmp_path / "lc.json", tmp_path / "v.csv"
    rc = main(["cantor", "build", "--qvec", qvec_files["luroth"], "--alpha", "3/5", "--delta", "1/5",
               "--L", "1/2", "--depth", "2", "--out", str(spec_path)])
    assert rc == 0
    levels = json.loads(spec_path.read_text())["levels"]
    assert [(lvl["k"], lvl["M"]) for lvl in levels] == [(1024, 105), (157957915323280397, 57402101690981)]
    capsys.readouterr()
    rc = main(["cantor", "volume", "--spec", str(spec_path), "--s-grid", "1/2,1", "--csv", str(vol_path)])
    assert rc == 0
    capsys.readouterr()
    with open(vol_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    # at s = 1 both families' volumes enclose the product of the exact window masses
    lur = QVectorSpec.luroth()
    exact = Fraction(1)
    for lvl in levels:
        exact *= lur.range_sum(lvl["k"], lvl["k"] + lvl["M"])
    at_one = [row for row in rows if Fraction(row[1]) == 1]
    assert sorted(row[0] for row in at_one) == ["block_union", "phi_split"]
    for _, _, lo, hi in at_one:
        assert Fraction(lo) <= exact <= Fraction(hi)
    rc = main(["cantor", "volume", "--spec", str(spec_path), "--s-grid", "1", "--family", "phi_split",
               "--level", "1", "--csv", str(vol_path)])
    assert rc == 0
    with open(vol_path, newline="") as fh:
        (_, s, lo, hi), = list(csv.reader(fh))[1:]
    assert Fraction(lo) <= lur.range_sum(1024, 1129) <= Fraction(hi)


def test_failed_cantor_volume_leaves_no_csv(cantor3, tmp_path, capsys):
    # the rows at s = 1/10 certify before s = 3/2 is refused
    path = tmp_path / "vol.csv"
    rc = main(["cantor", "volume", "--spec", cantor3, "--s-grid", "1/10,3/2", "--csv", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error (ParameterRangeError)")
    assert captured.err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize(
    "option, argv",
    [("--s-grid", ["cantor", "volume", "--s-grid", "", "--csv"]),
     ("--s-grid", ["cantor", "volume", "--s-grid", "1/10,,1/5", "--csv"]),
     ("--s-grid", ["cantor", "gap", "--s-grid", "", "--out"]),
     ("--s-grid", ["cantor", "gap", "--s-grid", "1/10,", "--out"]),
     ("--n-grid", ["scan-condition", "--n-grid", "", "--M-grid", "100", "--csv"]),
     ("--M-grid", ["scan-condition", "--n-grid", "50", "--M-grid", " ", "--csv"]),
     ("--M-grid", ["scan-condition", "--n-grid", "50", "--M-grid", "100,,inf", "--csv"]),
     # an entry its parser refuses is named with the option
     ("--n-grid entry 'x'", ["scan-condition", "--n-grid", "50,x", "--M-grid", "100", "--csv"]),
     ("--M-grid entry '1e3'", ["scan-condition", "--n-grid", "50", "--M-grid", "1e3", "--csv"]),
     ("--s-grid entry 'abc'", ["cantor", "volume", "--s-grid", "1/10,abc", "--csv"]),
     ("--s-grid entry '1/0'", ["cantor", "volume", "--s-grid", "1/0", "--csv"])],
    ids=["volume", "volume-entry", "gap", "gap-entry", "scan-n", "scan-M", "scan-M-entry",
         "scan-n-malformed", "scan-M-malformed", "volume-malformed", "volume-zero-denominator"],
)
def test_empty_grid_exits_one_naming_the_option(cantor3, qvec_files, tmp_path, capsys, option, argv):
    path = tmp_path / "out"
    inputs = (["--spec", cantor3] if argv[0] == "cantor" else
              ["--qvec", qvec_files["powerlaw"], "--alpha", "2/5", "--delta", "1/10"])
    rc = main(argv[:-1] + inputs + [argv[-1], str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error (ParameterRangeError): {option} ")
    assert captured.err.count("\n") == 1
    assert not path.exists()


_ENTRY_POINTS = {
    "scan_condition_region": lambda spec3, files: faithfulness.scan_condition_region(
        QVectorSpec.powerlaw(2), Fraction(2, 5), Fraction(1, 10), [50], [100, None]),
    "build_cantor": lambda spec3, files: cantor.build_cantor(
        QVectorSpec.powerlaw(2), Fraction(2, 5), Fraction(1, 5), Fraction(1, 2)),
    "assemble_cantor": lambda spec3, files: _assemble3(),
    "level_volume": lambda spec3, files: cantor.level_volume(
        spec3, 3, Fraction(1, 10), cantor.PHI_SPLIT),
    "measure_cylinder": lambda spec3, files: cantor.measure_cylinder(
        spec3, cantor.CantorAddress((630, 391229168930))),
    "local_dim_ratio": lambda spec3, files: cantor.local_dim_ratio(
        spec3, cantor.CantorAddress((630,)), Fraction(1, 10)),
    "cli-decode": lambda spec3, files: main(
        ["decode", "--qvec", files["powerlaw"], "--digits", "[2,0,5]"]),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_entry_point_enters_one_rung_at_the_default_precision(monkeypatch, qvec_files, capsys, entry):
    spec3 = _depth3()
    rungs = []
    real = rigor.workprec

    def spy(bits):
        rungs.append(bits)
        return real(bits)

    monkeypatch.setattr(rigor, "workprec", spy)
    _ENTRY_POINTS[entry](spec3, qvec_files)
    assert rungs == [rigor.DEFAULT_PREC]
    capsys.readouterr()
