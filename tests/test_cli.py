"""End-to-end command-line behavior, including exit codes and manifests."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tverberg.bounds import (
    colored_slack,
    colored_tolerance_from_n,
    reay_slack,
    reay_tolerance_from_m,
)
from tverberg.cli import build_parser, main

pytestmark = pytest.mark.usefixtures("pinned_clock")


@pytest.fixture
def pinned_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_bound_plain_frozen_value(capsys):
    record = run_json(
        capsys, "bound", "plain", "--n", "100", "--d", "1", "--r", "2"
    )
    assert record["tolerance"] == 26
    assert record["formula"] == "plain"
    assert record["lambda"] > 0
    manifest = record["manifest"]
    assert manifest["command"] == "bound"
    assert manifest["parameters"] == {"n": 100, "d": 1, "r": 2}
    assert manifest["timestamp"].startswith("2023-11-14")


def test_bound_epsilon_frozen_value(capsys):
    record = run_json(
        capsys,
        "bound", "epsilon", "--t", "25", "--d", "1", "--r", "2", "--eps", "0.5",
    )
    assert record["n"] == 100


def test_bound_carath_frozen_value(capsys):
    record = run_json(
        capsys, "bound", "carath", "--n", "100", "--d", "2", "--r", "2"
    )
    assert record["guaranteed_depth"] == 27


@pytest.mark.parametrize(
    "argv, tolerance, slack",
    [
        (
            ["colored", "--n", "200", "--d", "2", "--r", "3"],
            colored_tolerance_from_n(200, 2, 3), colored_slack(200, 2, 3),
        ),
        (
            ["reay", "--n", "300", "--d", "2", "--r", "4", "--k", "3"],
            reay_tolerance_from_m(300, 2, 4, 3), reay_slack(300, 2, 4, 3),
        ),
    ],
    ids=["colored", "reay"],
)
def test_bound_prints_the_library_values(capsys, argv, tolerance, slack):
    record = run_json(capsys, "bound", *argv)
    assert (record["tolerance"], record["lambda"]) == (tolerance, slack)
    assert record["formula"] == argv[0]


def test_bound_missing_argument_is_invalid(capsys):
    code, _, err = run_cli(capsys, "bound", "plain", "--d", "1", "--r", "2")
    assert code == 2
    assert "needs --n" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["plain", "--n", "100"],
        ["epsilon", "--t", "2", "--eps", "0.1"],
        ["reay", "--n", "100", "--k", "2"],
        ["colored", "--n", "100"],
    ],
)
def test_bound_with_no_parts_is_invalid(capsys, argv):
    # --r 0 once divided by zero before the part count was checked.
    code, out, err = run_cli(capsys, "bound", *argv, "--d", "2", "--r", "0")
    assert (code, out) == (2, "")
    assert "need at least two parts" in err


def test_gen_line_values(capsys):
    record = run_json(capsys, "gen", "line", "--n", "12")
    assert record["dimension"] == 1
    assert [pt[0] for pt in record["points"]] == [f"{v}/1" for v in range(1, 13)]


def test_gen_colored_classes_shape(capsys):
    record = run_json(
        capsys,
        "gen", "colored-classes", "--classes", "5", "--r", "3", "--seed", "1",
    )
    assert len(record["points"]) == 15
    assert sorted(set(record["colors"])) == [1, 2, 3, 4, 5]
    assert record["colors"].count(1) == 3


def test_gen_grid_point_count(capsys):
    record = run_json(capsys, "gen", "grid", "--side", "3", "--dim", "2")
    assert len(record["points"]) == 9


@pytest.mark.parametrize(
    "argv",
    [
        ["line", "--n", "5"],
        ["grid", "--side", "2", "--dim", "2"],
        ["uniform-ball", "--n", "6", "--seed", "3"],
        ["colored-classes", "--classes", "3", "--r", "2", "--seed", "1"],
    ],
)
def test_gen_stdout_equals_its_out_file(capsys, tmp_path, argv):
    code, stdout, _ = run_cli(capsys, "gen", *argv)
    assert code == 0
    out = tmp_path / "cfg.json"
    assert run_cli(capsys, "gen", *argv, "--out", str(out)) == (0, "", "")
    assert out.read_text() == stdout


def test_identical_runs_are_byte_identical(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    code, _, _ = run_cli(
        capsys, "gen", "line", "--n", "10", "--out", str(cfg)
    )
    assert code == 0
    args = (
        "partition", str(cfg), "--r", "2", "--t", "2",
        "--seed", "1", "--max-trials", "80",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_partition_verify_round_trip(capsys, tmp_path):
    cfg = tmp_path / "line.json"
    part = tmp_path / "partition.json"
    report = tmp_path / "report.json"
    assert run_cli(capsys, "gen", "line", "--n", "10", "--out", str(cfg))[0] == 0

    found = run_json(
        capsys,
        "partition", str(cfg), "--r", "2", "--t", "2", "--seed", "1",
        "--max-trials", "80",
        "--out-partition", str(part), "--out-report", str(report),
    )
    claimed = found["report"]["tolerance"]
    assert claimed >= 2
    assert json.loads(report.read_text())["tolerance"] == claimed

    checked = run_json(
        capsys,
        "verify", str(cfg), str(part), "--method", "exhaustive",
    )
    assert checked["tolerance"] == claimed
    assert checked["method"] == "exhaustive-oracle"
    assert len(checked["witness_removal"]) == claimed + 1


def test_partition_pigeonhole_refusal_exit_code(capsys, tmp_path):
    # n < r * (t + 1), so some part has at most t points; with r > n, some
    # part is empty.  Each is refused before any trial is drawn, and a long
    # r is quoted in short.
    for n, r, t in [(6, 2, 3), (13, 2, 6), (12, 13, 0), (12, int("1" * 4000), 0)]:
        cfg = tmp_path / f"line{n}.json"
        assert run_cli(capsys, "gen", "line", "--n", str(n), "--out", str(cfg))[0] == 0
        code, out, err = run_cli(
            capsys, "partition", str(cfg), "--r", str(r), "--t", str(t), "--seed", "0"
        )
        assert (code, out) == (4, ""), (n, t)
        assert "pigeonhole" in err and len(err) <= 300


def test_partition_colored_class_count_refusal_exit_code(capsys, tmp_path):
    # Removing all 3 classes empties every part, so tolerance 3 is refused.
    cfg = tmp_path / "classes.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "colored-classes", "--classes", "3", "--r", "2", "--dim", "1",
        "--out", str(cfg),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "partition", str(cfg), "--mode", "colored", "--t", "3"
    )
    assert (code, out) == (4, "")
    assert err == (
        "unachievable by pigeonhole: 6 points in 2 parts leave some part with at "
        "most 3 points, and removing that part empties it\n"
    )


def test_partition_colored_r_must_match_the_class_size(capsys, tmp_path):
    cfg = tmp_path / "classes.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "colored-classes", "--classes", "3", "--r", "2", "--dim", "1",
        "--out", str(cfg),
    )
    assert code == 0
    code, out, err = run_cli(
        capsys, "partition", str(cfg), "--mode", "colored", "--r", "3", "--t", "1"
    )
    assert (code, out) == (2, "")
    assert err == "error: --r does not match the class size 2\n"


def test_reay_partition_and_both_verify_methods_agree(capsys, tmp_path):
    # The k-of-r search certifies every pair of its three parts; verify
    # must give the same tolerance by the lift and by the removal scan.
    cfg = tmp_path / "ball.json"
    part = tmp_path / "reay.json"
    assert run_cli(
        capsys,
        "gen", "uniform-ball", "--n", "12", "--dim", "2", "--radius", "100",
        "--seed", "3", "--out", str(cfg),
    )[0] == 0
    found = run_json(
        capsys,
        "partition", str(cfg), "--mode", "reay", "--r", "3", "--k", "2",
        "--t", "1", "--seed", "0", "--out-partition", str(part),
    )
    claimed = found["report"]["tolerance"]
    assert claimed >= 1 and found["report"]["k"] == 2
    for method in ("lifted", "exhaustive"):
        checked = run_json(
            capsys,
            "verify", str(cfg), str(part), "--mode", "reay", "--k", "2",
            "--method", method,
        )
        assert checked["tolerance"] == claimed


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--r", "1", "--t", "0"], "need at least two parts"),
        (["--r", "2", "--t", "-1"], "target tolerance must be nonnegative"),
        (["--r", "2", "--t", "0", "--max-trials", "0"], "need at least one trial"),
    ],
    ids=["one-part", "negative-t", "no-trials"],
)
def test_partition_refuses_an_empty_search(capsys, tmp_path, flags, message):
    cfg = tmp_path / "line.json"
    assert run_cli(capsys, "gen", "line", "--n", "6", "--out", str(cfg))[0] == 0
    code, out, err = run_cli(capsys, "partition", str(cfg), *flags)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_unparsable_source_date_epoch_is_invalid(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    code, out, err = run_cli(capsys, "bound", "plain", "--n", "100", "--d", "1", "--r", "2")
    assert (code, out) == (2, "")
    assert err == "error: SOURCE_DATE_EPOCH must be an integer\n"


def test_partition_trial_exhaustion_exit_code(capsys, tmp_path):
    cfg = tmp_path / "twelve.json"
    assert run_cli(capsys, "gen", "line", "--n", "12", "--out", str(cfg))[0] == 0
    code, _, err = run_cli(
        capsys,
        "partition", str(cfg), "--r", "2", "--t", "4",
        "--seed", "7", "--max-trials", "2",
    )
    assert code == 4
    assert "no certified partition within 2 trials" in err


def test_verify_lifted_rejects_t_cap(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "line", "--n", "6", "--out", str(cfg))[0] == 0
    part.write_text(json.dumps({"r": 2, "labels": [1, 2, 1, 2, 1, 2]}))
    code, _, err = run_cli(
        capsys, "verify", str(cfg), str(part), "--t-cap", "1"
    )
    assert code == 2
    assert "t-cap" in err


@pytest.fixture
def rainbow_files(capsys, tmp_path):
    """Three color classes of two points on the line, with a rainbow
    two-part partition: valid input for every verify mode."""
    cfg = tmp_path / "classes.json"
    part = tmp_path / "rainbow.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "colored-classes", "--classes", "3", "--r", "2", "--dim", "1",
        "--out", str(cfg),
    )
    assert code == 0
    part.write_text(json.dumps({"r": 2, "labels": [1, 2, 1, 2, 1, 2]}))
    return str(cfg), str(part)


@pytest.mark.parametrize(
    "flags",
    [
        ["--mode", "colored", "--t-cap", "0"],
        ["--mode", "reay", "--k", "2", "--method", "exhaustive", "--t-cap", "0"],
        ["--mode", "reay", "--k", "2", "--t-cap", "0"],
        ["--mode", "plain", "--k", "2"],
        ["--mode", "plain", "--method", "exhaustive", "--k", "2"],
        ["--mode", "colored", "--k", "2"],
        ["--mode", "colored", "--method", "exhaustive", "--k", "2"],
        ["--budget", "5"],
        ["--mode", "colored", "--budget", "5"],
        ["--mode", "reay", "--k", "2", "--budget", "5"],
    ],
)
def test_verify_rejects_options_it_would_ignore(capsys, rainbow_files, flags):
    code, out, err = run_cli(capsys, "verify", *rainbow_files, *flags)
    assert code == 2
    assert out == ""
    flag = next(f for f in ("--t-cap", "--budget", "--k") if f in flags)
    assert flag in err


def test_partition_rejects_k_outside_reay(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    assert run_cli(capsys, "gen", "line", "--n", "6", "--out", str(cfg))[0] == 0
    code, out, err = run_cli(
        capsys, "partition", str(cfg), "--r", "2", "--t", "1", "--k", "2"
    )
    assert code == 2
    assert out == ""
    assert "--k" in err


@pytest.mark.parametrize("mode", ["plain", "colored"])
def test_verify_exhaustive_applies_t_cap(capsys, rainbow_files, mode):
    record = run_json(
        capsys,
        "verify", *rainbow_files, "--mode", mode, "--method", "exhaustive",
        "--t-cap", "0",
    )
    assert record["tolerance"] <= 0
    assert record["manifest"]["parameters"]["t_cap"] == 0


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_budget_below_one_is_invalid(capsys, tmp_path, budget):
    # Refused among the option checks: the input files do not exist.
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(
        capsys, "verify", missing, missing, "--method", "exhaustive", "--budget", budget
    )
    assert code == 2 and out == ""
    assert "--budget must be positive" in err


def test_verify_budget_exhaustion_exit_code(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "line", "--n", "14", "--out", str(cfg))[0] == 0
    part.write_text(json.dumps({"r": 2, "labels": [1, 2] * 7}))
    code, _, err = run_cli(
        capsys,
        "verify", str(cfg), str(part), "--method", "exhaustive", "--budget", "5",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_depth_square_with_fractional_center(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    assert run_cli(
        capsys, "gen", "grid", "--side", "2", "--dim", "2", "--out", str(cfg)
    )[0] == 0
    record = run_json(capsys, "depth", str(cfg), "--center", "1/2,1/2")
    assert record["depth"] == 2
    assert record["witness_halfspace"]["normal"]


def test_depth_blocks_mode(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    assert run_cli(
        capsys, "gen", "grid", "--side", "2", "--dim", "2", "--out", str(cfg)
    )[0] == 0
    record = run_json(
        capsys,
        "depth", str(cfg), "--center", "1/2,1/2", "--blocks", "0,1;2,3",
    )
    assert record["depth"] == 1
    # An empty --blocks covers no point: invalid, not a point-depth run.
    for blocks in ("0,1;2", ""):
        code, out, err = run_cli(
            capsys, "depth", str(cfg), "--center", "1/2,1/2", "--blocks", blocks
        )
        assert (code, out) == (2, "")
        assert "cover" in err


def test_depth_bad_center_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    assert run_cli(
        capsys, "gen", "grid", "--side", "2", "--dim", "2", "--out", str(cfg)
    )[0] == 0
    assert run_cli(capsys, "depth", str(cfg), "--center", "1,x")[0] == 2
    assert run_cli(capsys, "depth", str(cfg), "--center", "1")[0] == 2


def test_depth_accepts_csv_input(capsys, tmp_path):
    csv = tmp_path / "square.csv"
    csv.write_text("0,0\n2,0\n0,2\n2,2\n")
    record = run_json(capsys, "depth", str(csv), "--center", "1,1")
    assert record["depth"] == 2


def test_plot_svg_with_highlighted_removal(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    report = tmp_path / "r.json"
    assert run_cli(capsys, "gen", "line", "--n", "8", "--out", str(cfg))[0] == 0
    # Plot needs dimension 2; rebuild the same values as a planar zigzag.
    cfg.write_text(
        json.dumps(
            {
                "dimension": 2,
                "points": [[str(i), str((-1) ** i)] for i in range(8)],
            }
        )
    )
    part.write_text(json.dumps({"r": 2, "labels": [1, 2, 1, 2, 1, 2, 1, 2]}))
    found = run_json(
        capsys, "verify", str(cfg), str(part), "--method", "exhaustive"
    )
    report.write_text(json.dumps(found))
    code, out, _ = run_cli(
        capsys,
        "plot", str(cfg), "--partition", str(part), "--report", str(report),
    )
    assert code == 0
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert "circle" in out


def test_plot_writes_its_stdout_to_the_out_file(capsys, tmp_path):
    cfg, part, report = (tmp_path / name for name in ("cfg.json", "p.json", "r.json"))
    code, _, _ = run_cli(
        capsys, "gen", "uniform-ball", "--n", "10", "--seed", "7", "--out", str(cfg)
    )
    assert code == 0
    run_json(
        capsys, "partition", str(cfg), "--r", "2", "--t", "1", "--seed", "0",
        "--out-partition", str(part), "--out-report", str(report),
    )
    argv = ["plot", str(cfg), "--partition", str(part), "--report", str(report)]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0 and stdout.startswith("<svg")
    svg = tmp_path / "plot.svg"
    assert run_cli(capsys, *argv, "--out", str(svg)) == (0, "", "")
    assert svg.read_text() == stdout


def test_plot_class_report_rings_every_point_of_the_removed_classes(capsys, tmp_path):
    cfg = tmp_path / "classes.json"
    part = tmp_path / "rainbow.json"
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "gen", "colored-classes", "--classes", "6", "--r", "2", "--dim", "2",
        "--seed", "7", "--out", str(cfg),
    )
    assert code == 0
    run_json(
        capsys,
        "partition", str(cfg), "--mode", "colored", "--t", "1", "--seed", "0",
        "--out-partition", str(part), "--out-report", str(report),
    )
    found = json.loads(report.read_text())
    assert found["unit"] == "classes" and found["witness_removal"]
    code, out, _ = run_cli(
        capsys, "plot", str(cfg), "--partition", str(part), "--report", str(report)
    )
    assert code == 0
    # Each point is one r="4" circle, followed by an r="8" ring if removed.
    ringed, index = set(), -1
    for line in out.splitlines():
        if 'r="4"' in line:
            index += 1
        elif 'r="8"' in line:
            ringed.add(index)
    colors = json.loads(cfg.read_text())["colors"]
    removed = set(found["witness_removal"])
    assert ringed == {i for i, c in enumerate(colors) if c in removed}
    assert len(ringed) == 2 * len(removed)


@pytest.mark.parametrize(
    "report",
    ["[1]", '{"witness_removal": 5}', '{"witness_removal": [1.7]}',
     '{"witness_removal": [true]}', '{"witness_removal": [[1]], "unit": "classes"}'],
    ids=["not-an-object", "not-a-list", "float-index", "bool-index", "list-class"],
)
def test_plot_report_must_be_an_object_with_integer_witness(capsys, tmp_path, report):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dimension": 2, "points": [["0", "0"], ["1", "0"], ["0", "1"]], "colors": [1, 2, 3],
    }))
    path = tmp_path / "r.json"
    path.write_text(report)
    code, out, err = run_cli(capsys, "plot", str(cfg), "--report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed report JSON")


def test_main_builds_its_parser_once():
    # A fresh parser per call left a few hundred objects of cyclic garbage.
    assert build_parser() is build_parser()


def test_plot_rejects_other_dimensions(capsys, tmp_path):
    cfg = tmp_path / "line.json"
    assert run_cli(capsys, "gen", "line", "--n", "5", "--out", str(cfg))[0] == 0
    code, _, err = run_cli(capsys, "plot", str(cfg))
    assert code == 2
    assert "dimension" in err


def test_partition_labels_not_a_list_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "line", "--n", "5", "--out", str(cfg))[0] == 0
    part.write_text(json.dumps({"r": 2, "labels": 5}))
    code, _, err = run_cli(capsys, "verify", str(cfg), str(part))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_points_not_a_list_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 2, "points": 5}))
    code, _, err = run_cli(capsys, "depth", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_zero_denominator_coordinate_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 1, "points": [["1/0"], ["2/1"]]}))
    code, _, err = run_cli(capsys, "depth", str(cfg))
    assert code == 2
    assert "zero denominator" in err


def test_missing_input_file_is_invalid(capsys):
    code, _, err = run_cli(capsys, "depth", "/nonexistent/cfg.json")
    assert code == 2
    assert err.startswith("error:")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tverberg.cli", "bound", "plain",
         "--n", "100", "--d", "1", "--r", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tolerance"] == 26


@pytest.mark.parametrize(
    "partition",
    [
        {"r": 2, "labels": [1, 2.7, 1, 2, 1]},
        {"r": True, "labels": [1, 1, 1, 1, 1]},
        {"r": "2", "labels": [1, 2, 1, 2, 1]},
    ],
    ids=["float-label", "bool-r", "string-r"],
)
def test_partition_json_takes_only_integers(capsys, tmp_path, partition):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "line", "--n", "5", "--out", str(cfg))[0] == 0
    part.write_text(json.dumps(partition))
    code, out, err = run_cli(
        capsys, "verify", str(cfg), str(part), "--method", "exhaustive"
    )
    assert code == 2 and out == ""
    assert "malformed partition JSON" in err and "must be an integer" in err


def test_partition_with_more_parts_than_labels_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    part = tmp_path / "p.json"
    assert run_cli(capsys, "gen", "line", "--n", "5", "--out", str(cfg))[0] == 0
    part.write_text(json.dumps({"r": 1000, "labels": [1, 2, 1, 2, 1]}))
    code, out, err = run_cli(capsys, "verify", str(cfg), str(part))
    assert code == 2 and out == ""
    assert "r = 1000 exceeds the number of labels" in err


def test_verify_reports_rationals_of_any_length(capsys, tmp_path):
    # Coordinates of 3,000 digits over 3,000 digits load under str()'s
    # 4,300-digit limit; the lifted witness normal's entries pass it.
    big = 10**2999 + 7
    cfg = tmp_path / "big.json"
    points = [[f"{b * big + i + 1}/{big}"] for i, b in enumerate([0, 2, 4, 1, 3, 5])]
    cfg.write_text(json.dumps({"dimension": 1, "points": points}))
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"r": 2, "labels": [1, 2, 2, 1, 1, 2]}))
    lifted = run_json(capsys, "verify", str(cfg), str(part))
    exhaustive = run_json(capsys, "verify", str(cfg), str(part), "--method", "exhaustive")
    assert lifted["tolerance"] == exhaustive["tolerance"] == 0
    assert max(map(len, lifted["witness_halfspace"]["normal"])) > 4300


def test_decimal_exponent_coordinate_is_invalid(tmp_path):
    # Refused before Fraction builds 10**999999999, which takes hours; run
    # in a subprocess so that a regression fails on the timeout, not hangs.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 1, "points": [["1e999999999"], ["2"]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "tverberg.cli", "depth", str(cfg)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "decimal exponents are not accepted" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "uniform-ball", "--n", "3", "--radius", str(2**63)], "exceeds 2**64"),
        (["gen", "uniform-ball", "--n", "3", "--radius", str(10**20)], "exceeds 2**64"),
        (
            ["gen", "colored-classes", "--classes", "2", "--r", "2", "--radius", str(2**63)],
            "exceeds 2**64",
        ),
        (
            ["bound", "epsilon", "--t", "10", "--d", "2", "--r", "2", "--eps", "1e-320"],
            "1/eps overflows",
        ),
        (["gen", "uniform-ball", "--n", "2", "--dim", "30"], "exceeds the cap of 8"),
        (
            ["gen", "colored-classes", "--classes", "1", "--r", "2", "--dim", "24"],
            "exceeds the cap of 8",
        ),
    ],
    ids=[
        "radius-2^63", "radius-10^20", "colored-radius-2^63", "eps-1e-320",
        "ball-dim-30", "colored-ball-dim-24",
    ],
)
def test_requests_that_never_finish_are_invalid(argv, message):
    # Each of these once looped forever; run in a subprocess so that a
    # regression fails on the timeout, not hangs.
    proc = subprocess.run(
        [sys.executable, "-m", "tverberg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["depth", "{deep}"], "JSON nested too deeply to read"),
        (["verify", "{grid}", "{deep}"], "JSON nested too deeply to read"),
        (["plot", "{grid}", "--report", "{deep}"], "JSON nested too deeply to read"),
        (["depth", "{wide}"], "field larger than field limit (131072)"),
    ],
    ids=["deep-config", "deep-partition", "deep-report", "wide-csv-field"],
)
def test_unparsable_files_are_invalid(capsys, tmp_path, argv, message):
    # JSON nested past the recursion limit once exited 1 with a RecursionError
    # traceback, and a CSV field past csv.field_size_limit() with a csv.Error.
    paths = {"deep": tmp_path / "deep.json", "wide": tmp_path / "wide.csv", "grid": tmp_path / "grid.json"}
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    paths["wide"].write_text("1," + "1" * 131_073 + "\n")
    assert run_cli(capsys, "gen", "grid", "--side", "3", "--out", str(paths["grid"]))[0] == 0
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["line", "--n", "100001"], "100001 points exceed the cap of 100000"),
        (["uniform-ball", "--n", "100001"], "100001 points exceed the cap of 100000"),
        (
            ["colored-classes", "--classes", "50001", "--r", "2"],
            "100002 points exceed the cap of 100000",
        ),
        (["grid", "--side", "2", "--dim", "100000"], "grid would have 2^100000 points"),
        (
            ["grid", "--side", "1", "--dim", "1000000000"],
            "grid dimension 1000000000 exceeds the cap of 100000",
        ),
    ],
    ids=["line", "uniform-ball", "colored-classes", "grid-2^100000", "grid-dim-10^9"],
)
def test_every_generator_refuses_past_the_point_cap(capsys, argv, message):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert message in err


_LINE5 = {"dimension": 1, "points": [["1"], ["2"], ["3"], ["4"], ["5"]]}
_LIMIT = "exceeds the 4300-digit limit"


@pytest.mark.parametrize(
    "command, config, partition, message",
    [
        ("depth", {"dimension": 2, "points": [["1"] * 200_000]}, None, "has 200000 coordinates"),
        ("depth", {"dimension": 1, "points": [["x" * 10**6]]}, None, "Invalid literal"),
        ("depth", {"dimension": 1, "points": [["1e" + "1" * 10**6]]}, None, "decimal exponents"),
        ("depth", {"dimension": 1, "points": [[list(range(10**5))]]}, None, "a number string"),
        (
            "verify", _LINE5, {"r": 2, "labels": ["x" * 10**6, 1, 2, 1, 2]},
            "a label must be an integer",
        ),
        ("verify", _LINE5, {"r": 2, "labels": [3] * 10**5}, "fall outside 1..2"),
        ("verify", _LINE5, {"r": 2}, "malformed partition JSON: 'labels'"),
        ("verify", _LINE5, {"labels": [1, 2, 1, 2, 1]}, "malformed partition JSON: 'r'"),
        (
            "blocks", {"dimension": 1, "points": [[str(i)] for i in range(20_000)]}, None,
            "blocks do not cover point indices [1, 2, 3, 4, 5, 6, ...]",
        ),
        # Integers past str()'s 4,300-digit limit, and long integers echoed.
        ("depth", {"dimension": 1, "points": [["1" * 4401 + "/3"]]}, None, _LIMIT),
        ("depth", ("cfg.csv", "1" * 4401 + "/3\n1\n"), None, _LIMIT),
        ("depth", ("cfg.csv", "1/2," + "1" * 4401 + "\n1/3,1\n"), None, _LIMIT),
        (
            "depth", ("cfg.json", '{"dimension": ' + "1" * 4400 + ', "points": [["1"]]}'),
            None, _LIMIT,
        ),
        ("depth", {"dimension": int("1" * 4000), "points": [["1"]]}, None, "expected 111"),
        (
            "verify", _LINE5, {"r": int("1" * 4000), "labels": [1, 2, 1, 2, 1]},
            "exceeds the number of labels",
        ),
    ],
    ids=[
        "long-point", "long-coordinate", "long-exponent", "list-coordinate",
        "long-label", "many-bad-labels", "no-labels", "no-r", "many-uncovered-indices",
        "json-numerator-past-limit", "csv-numerator-past-limit", "csv-color-past-limit",
        "json-dimension-past-limit", "long-dimension", "long-r",
    ],
)
def test_malformed_input_is_echoed_in_short(
    capsys, tmp_path, command, config, partition, message
):
    # Each message once repeated its whole input, megabytes of stderr, or
    # advised a call to sys.set_int_max_str_digits().  A config is a JSON
    # object, or a file name and its text.
    name, text = config if isinstance(config, tuple) else ("cfg.json", json.dumps(config))
    cfg = tmp_path / name
    cfg.write_text(text)
    if command == "verify":
        part = tmp_path / "p.json"
        part.write_text(json.dumps(partition))
        argv = ["verify", str(cfg), str(part)]
    else:
        argv = ["depth", str(cfg)] + (["--blocks", "0"] if command == "blocks" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and len(err.encode()) <= 300
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "plain", "--n", "1" * 5000, "--d", "2", "--r", "2"],
        ["depth", "{cfg}", "--blocks", "0,1;" + "1" * 5000],
    ],
    ids=["option", "blocks-index"],
)
def test_long_integer_arguments_are_refused_in_short(capsys, tmp_path, argv):
    # An integer option or a --blocks index past int()'s 4,300-digit limit
    # is refused in the program's own words, its value quoted in short.
    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps(_LINE5))
    try:
        code = main([a.replace("{cfg}", str(cfg)) for a in argv])
    except SystemExit as exc:  # argparse refuses a bad option value
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert _LIMIT in err and len(err.encode()) <= 300
    assert "set_int_max_str_digits" not in err


def test_long_eps_value_is_refused_in_short(capsys):
    # argparse's own float type would echo all 5,000 characters back.
    with pytest.raises(SystemExit) as exc:
        main(["bound", "epsilon", "--t", "3", "--d", "2", "--r", "2", "--eps", "1" * 4999 + "x"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --eps: could not convert string to float" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "epsilon", "--t", str(10**15), "--d", "2", "--r", "2", "--eps", "0.5"],
        ["bound", "colored", "--n", "10", "--d", "2", "--r", "200000"],
        ["bound", "reay", "--n", "100", "--d", "2", "--r", "4000000", "--k", "2000000"],
    ],
    ids=["epsilon-t-10^15", "colored-r-200000", "reay-r-4*10^6"],
)
def test_large_bound_requests_finish(argv):
    # Each of these once ran for hours; run in a subprocess so that a
    # regression fails on the timeout, not hangs.
    proc = subprocess.run(
        [sys.executable, "-m", "tverberg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["formula"] == argv[1]


@pytest.mark.parametrize("formula", ["plain", "carath"])
def test_bound_past_float_range_is_invalid(capsys, formula):
    code, out, err = run_cli(
        capsys, "bound", formula, "--n", str(10**399), "--d", "2", "--r", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_plot_past_float_range_is_invalid(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"dimension": 2, "points": [[str(10**400), "0"], ["1", "1"], ["0", "2"]]})
    )
    code, out, err = run_cli(capsys, "plot", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "config",
    [
        {"dimension": 2.0, "points": [["1", "2"]]},
        {"dimension": float("inf"), "points": [["1"]]},
        {"dimension": 10**18, "points": []},
        {"dimension": 1, "points": [["1"], ["-1"]], "colors": [1, float("inf")]},
    ],
    ids=["float-dimension", "infinite-dimension", "huge-dimension-no-points", "infinite-color"],
)
def test_configuration_json_takes_only_integers_and_points(capsys, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "depth", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed configuration JSON")


@pytest.mark.parametrize(
    "top", ["[1, 2]", '"points"', "null", "3"], ids=["array", "string", "null", "number"]
)
@pytest.mark.parametrize(
    "command, what",
    [
        (["depth", "{bad}"], "configuration"),
        (["verify", "{good}", "{bad}"], "partition"),
        (["plot", "{good}", "--partition", "{bad}"], "partition"),
        (["plot", "{good}", "--report", "{bad}"], "report"),
    ],
    ids=["depth-configuration", "verify-partition", "plot-partition", "plot-report"],
)
def test_top_level_json_must_be_an_object(capsys, tmp_path, top, command, what):
    # Any other top-level value is refused by name, not with the
    # interpreter's words for indexing it.
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"dimension": 1, "points": [["0"], ["1"]]}))
    bad.write_text(top)
    argv = [a.format(good=good, bad=bad) for a in command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: malformed {what} JSON: expected an object\n"


# Malformed-input fuzzing.  Each example is a point file and a partition
# file (which doubles as the report file of plot --report) that are well
# formed but for a few malformed parts, or that hold any JSON or text at all.  Decimal exponents and part counts above the number
# of labels are among the malformed parts: both are refused up front.
_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(),
    st.text(alphabet="0123456789/-.x ,;", max_size=4),
)
_good_coordinate = st.sampled_from(["1", "-2", "0", "1/2", "3/-4", "0.25", " 7 "])
_bad_coordinate = st.one_of(_leaf, st.sampled_from(["1/0", "nan", "x", "", "1e3"]))
_any_json = st.one_of(
    _leaf, st.lists(_leaf, max_size=2), st.dictionaries(st.text(max_size=3), _leaf, max_size=2)
)


@st.composite
def _input_files(draw):
    """(point file suffix, point file text, partition file text)."""

    def mostly(good, bad):
        return draw(bad) if draw(st.integers(0, 9)) == 0 else draw(good)

    n, d, r = draw(st.integers(1, 5)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    rows = [
        [mostly(_good_coordinate, _bad_coordinate) for _ in range(mostly(st.just(d), st.integers(0, 3)))]
        for _ in range(n)
    ]
    style = draw(st.sampled_from(["json", "csv", "any"]))
    if style == "json":
        data = {"dimension": mostly(st.just(d), _leaf), "points": mostly(st.just(rows), _any_json)}
        if draw(st.booleans()):
            data["colors"] = mostly(st.lists(st.integers(1, 3), min_size=n, max_size=n), _any_json)
        points = json.dumps(data)
    elif style == "csv":
        points = "\n".join(",".join(map(str, row)) for row in rows)
    else:
        points = draw(st.one_of(_any_json.map(json.dumps), st.text(max_size=20)))
    labels = mostly(st.lists(st.integers(1, r), min_size=n, max_size=n), _any_json)
    if isinstance(labels, list) and labels and draw(st.integers(0, 9)) == 0:
        labels[draw(st.integers(0, len(labels) - 1))] = draw(_leaf)
    huge_r = st.integers(10**3, 10**18)
    part_data = {"r": mostly(st.just(r), st.one_of(_leaf, huge_r)), "labels": labels}
    if draw(st.booleans()):  # also a report file, for plot --report
        part_data["unit"] = draw(st.sampled_from(["points", "classes"]))
        part_data["witness_removal"] = mostly(st.lists(st.integers(-1, n), max_size=3), _any_json)
    partition = json.dumps(part_data)
    if draw(st.integers(0, 9)) == 0:
        partition = draw(st.one_of(_any_json.map(json.dumps), st.text(max_size=10)))
    suffix = ".csv" if style == "csv" else draw(st.sampled_from([".json", ".json", ".csv"]))
    return suffix, points, partition


_command = st.sampled_from([
    ["depth", "{points}"],
    ["depth", "{points}", "--blocks", "0;1,2"],
    ["verify", "{points}", "{partition}"],
    ["verify", "{points}", "{partition}", "--method", "exhaustive"],
    ["verify", "{points}", "{partition}", "--mode", "colored"],
    ["plot", "{points}", "--partition", "{partition}"],
    ["plot", "{points}", "--report", "{partition}"],
])


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=_command, files=_input_files())
def test_malformed_input_exits_cleanly(capsys, tmp_path, command, files):
    suffix, points, partition = files
    paths = {"points": tmp_path / f"points{suffix}", "partition": tmp_path / "part.json"}
    paths["points"].write_text(points)
    paths["partition"].write_text(partition)
    argv = [a.format(**{k: str(v) for k, v in paths.items()}) for a in command]
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
